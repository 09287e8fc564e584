package intent

import (
	"errors"

	"repro/internal/dataplane"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Target is the observed side of the reconcile loop: the raw read/write
// surface of one switch. ObservedPool must return the newest *requested*
// pool (ctrlplane.TargetPool semantics), not the currently serving one —
// diffing against an in-flight update's target keeps the reconciler from
// double-requesting a pool the switch is already converging to, and makes
// re-applying an unchanged spec a true zero-write no-op.
type Target interface {
	ObservedVIPs() []dataplane.VIP
	ObservedPool(vip dataplane.VIP) ([]dataplane.DIP, bool)
	AddVIP(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP, meterBytesPerSec float64) error
	RemoveVIP(now simtime.Time, vip dataplane.VIP) error
	UpdatePool(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error
	// PendingWork is the switch's undrained load: learn events, queued
	// inserts, in-flight pool updates. Zero gates rolling fleet updates.
	PendingWork() int
}

// Condition is a per-VIP status condition.
type Condition string

const (
	// CondApplied: observed state matches desired state at the reported
	// generation.
	CondApplied Condition = "Applied"
	// CondDegraded: a write is pending or retrying; the VIP serves the
	// previous state meanwhile.
	CondDegraded Condition = "Degraded"
	// CondError: the retry budget was exhausted; the reconciler keeps
	// retrying at the backoff cap but the VIP needs attention.
	CondError Condition = "Error"
)

// VIPStatus is one VIP's reconcile status.
type VIPStatus struct {
	VIP                string       `json:"vip"`
	Condition          Condition    `json:"condition"`
	ObservedGeneration uint64       `json:"observed_generation"`
	Reason             string       `json:"reason,omitempty"`
	Message            string       `json:"message,omitempty"`
	Retries            int          `json:"retries,omitempty"`
	LastTransition     simtime.Time `json:"last_transition_ns"`
}

// Config parameterizes a Reconciler.
type Config struct {
	// MaxQueue bounds the number of distinct queued keys (default 1024).
	MaxQueue int
	// BaseBackoff is the first retry delay (default 1ms virtual); each
	// retry doubles it up to MaxBackoff (default 1s).
	BaseBackoff simtime.Duration
	MaxBackoff  simtime.Duration
	// MaxRetries is the per-key retry budget before the status degrades
	// to Error (default 8). The key keeps retrying at MaxBackoff — Error
	// is a reporting state, not a terminal one.
	MaxRetries int
	// Tracer receives the reconciler's KindReconcile events (nil =
	// untraced).
	Tracer telemetry.Tracer
	// Member labels events with the fleet member index.
	Member int
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = simtime.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = simtime.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	return c
}

// appliedRec remembers what the reconciler last wrote for a key, so meter
// changes (which require a remove+re-add, the meter being installed with
// the VIP) are detectable without a hardware read-back.
type appliedRec struct {
	pool  []dataplane.DIP
	meter float64
}

// Reconciler converges one Target onto a Desired state. It is not
// goroutine-safe; the facade serializes access (the same discipline as
// the rest of the control plane, which runs under virtual time).
type Reconciler struct {
	cfg     Config
	target  Target
	desired Desired
	applied map[dataplane.VIP]appliedRec
	q       *workqueue
	status  map[dataplane.VIP]*VIPStatus

	// queuedAt is each key's first-enqueue time since it last converged,
	// feeding the apply-latency histogram.
	queuedAt map[dataplane.VIP]simtime.Time

	writes uint64
}

// New builds a Reconciler over target.
func New(target Target, cfg Config) *Reconciler {
	return &Reconciler{
		cfg:      cfg.withDefaults(),
		target:   target,
		desired:  Desired{VIPs: map[dataplane.VIP]VIPDesired{}},
		applied:  make(map[dataplane.VIP]appliedRec),
		q:        newWorkqueue(cfg.withDefaults().MaxQueue),
		status:   make(map[dataplane.VIP]*VIPStatus),
		queuedAt: make(map[dataplane.VIP]simtime.Time),
	}
}

// Desired returns the current desired state (shared, do not mutate).
func (r *Reconciler) Desired() Desired { return r.desired }

// Generation returns the desired generation.
func (r *Reconciler) Generation() uint64 { return r.desired.Generation }

// Writes returns the number of writes (add/update/remove) issued against
// the target since construction — the idempotency probe: re-applying an
// unchanged spec must not move it.
func (r *Reconciler) Writes() uint64 { return r.writes }

// SetDesired replaces the desired state and enqueues every key whose
// desired state changed (including removals). Unchanged applied keys jump
// straight to the new generation without touching hardware.
func (r *Reconciler) SetDesired(now simtime.Time, d Desired) {
	old := r.desired
	r.desired = d
	touch := func(key dataplane.VIP) {
		r.enqueue(now, key, "Pending", "spec changed")
	}
	for key, want := range d.VIPs {
		had, ok := old.VIPs[key]
		if !ok || !SamePool(had.Pool, want.Pool) || had.MeterBytesPerSec != want.MeterBytesPerSec {
			touch(key)
			continue
		}
		// Unchanged key: if it was applied, it is applied at the new
		// generation too.
		if st, ok := r.status[key]; ok && st.Condition == CondApplied {
			st.ObservedGeneration = d.Generation
		} else {
			touch(key) // never applied (or mid-retry): keep it queued
		}
	}
	for key := range old.VIPs {
		if _, ok := d.VIPs[key]; !ok {
			touch(key)
		}
	}
}

// enqueue adds key to the workqueue and marks it Degraded. Retry state is
// reset: a new desired state starts a fresh attempt budget.
func (r *Reconciler) enqueue(now simtime.Time, key dataplane.VIP, reason, msg string) {
	r.q.Forget(key)
	if !r.q.Add(key, now) {
		// Queue full: surface as Error so the drop is visible; a later
		// drift scan re-adds the key once the queue drains.
		r.setStatus(now, key, CondError, "QueueFull", "workqueue at capacity", 0)
		return
	}
	if _, ok := r.queuedAt[key]; !ok {
		r.queuedAt[key] = now
	}
	r.setStatus(now, key, CondDegraded, reason, msg, 0)
}

// Reconcile runs one round: every due key is applied; failures are
// requeued with exponential backoff. Returns the number of keys that
// remain queued.
func (r *Reconciler) Reconcile(now simtime.Time) int {
	r.trace(telemetry.Event{Now: now, ReconcileStep: telemetry.ReconcileRound})
	for _, key := range r.q.Due(now) {
		retries := r.q.Retries(key)
		if err := r.applyKey(now, key); err != nil {
			retries++
			r.q.Requeue(key, now.Add(Backoff(r.cfg.BaseBackoff, r.cfg.MaxBackoff, retries)), retries)
			if retries > r.cfg.MaxRetries {
				r.setStatus(now, key, CondError, "RetriesExhausted", err.Error(), retries)
				r.event(now, key, telemetry.ReconcileError, "", retries, 0, err)
			} else {
				r.setStatus(now, key, CondDegraded, "Retrying", err.Error(), retries)
				r.event(now, key, telemetry.ReconcileRetry, "", retries, 0, err)
			}
		} else {
			r.q.Forget(key)
		}
	}
	return r.q.Len()
}

// Advance runs every reconcile round due at or before now, each at its own
// deadline: a retry's backoff is measured from when it was due, not from
// how far a driver's step reached. With NextEventTime it makes the
// reconciler a sched.Source.
func (r *Reconciler) Advance(now simtime.Time) {
	for {
		due, ok := r.NextEventTime()
		if !ok || now.Before(due) {
			return
		}
		r.Reconcile(due)
	}
}

// Backoff returns the capped exponential delay before retry attempt n
// (n >= 1): base·2^(n−1), at most limit. Member retries, rollout retries
// and the facade's upgrade retries all wait by it.
func Backoff(base, limit simtime.Duration, n int) simtime.Duration {
	d := base
	for i := 1; i < n && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// applyKey diffs one key and issues the single write that converges it:
// the shared engine under both Apply(spec) and the imperative facade
// methods.
func (r *Reconciler) applyKey(now simtime.Time, key dataplane.VIP) error {
	want, desired := r.desired.VIPs[key]
	obs, observed := r.target.ObservedPool(key)
	gen := r.desired.Generation

	switch {
	case desired && !observed:
		r.writes++
		if err := r.target.AddVIP(now, key, clonePool(want.Pool), want.MeterBytesPerSec); err != nil {
			return err
		}
		r.markApplied(now, key, want, gen, "add")

	case !desired && observed:
		r.writes++
		if err := r.target.RemoveVIP(now, key); err != nil {
			return err
		}
		r.markRemoved(now, key, gen)

	case desired && observed:
		if prev, ok := r.applied[key]; ok && prev.meter != want.MeterBytesPerSec {
			// Meters are bound at VIP installation: converge via
			// remove+re-add (two writes, one logical apply).
			r.writes += 2
			if err := r.target.RemoveVIP(now, key); err != nil {
				return err
			}
			if err := r.target.AddVIP(now, key, clonePool(want.Pool), want.MeterBytesPerSec); err != nil {
				return err
			}
			r.markApplied(now, key, want, gen, "update")
			break
		}
		if SamePool(obs, want.Pool) {
			r.markNoop(now, key, want, gen)
			break
		}
		r.writes++
		if err := r.target.UpdatePool(now, key, clonePool(want.Pool)); err != nil {
			return err
		}
		r.markApplied(now, key, want, gen, "update")

	default: // neither desired nor observed: already gone
		r.markRemoved(now, key, gen)
	}
	return nil
}

func (r *Reconciler) markApplied(now simtime.Time, key dataplane.VIP, want VIPDesired, gen uint64, op string) {
	r.applied[key] = appliedRec{pool: clonePool(want.Pool), meter: want.MeterBytesPerSec}
	lat := r.takeLatency(now, key)
	r.setStatus(now, key, CondApplied, "", "", 0)
	r.status[key].ObservedGeneration = gen
	r.event(now, key, telemetry.ReconcileApply, op, 0, lat, nil)
}

func (r *Reconciler) markRemoved(now simtime.Time, key dataplane.VIP, gen uint64) {
	removed := false
	if _, ok := r.applied[key]; ok {
		removed = true
	}
	delete(r.applied, key)
	delete(r.status, key)
	delete(r.queuedAt, key)
	if removed {
		r.event(now, key, telemetry.ReconcileApply, "remove", 0, 0, nil)
	} else {
		r.event(now, key, telemetry.ReconcileNoop, "", 0, 0, nil)
	}
}

func (r *Reconciler) markNoop(now simtime.Time, key dataplane.VIP, want VIPDesired, gen uint64) {
	r.applied[key] = appliedRec{pool: clonePool(want.Pool), meter: want.MeterBytesPerSec}
	delete(r.queuedAt, key)
	r.setStatus(now, key, CondApplied, "", "", 0)
	r.status[key].ObservedGeneration = gen
	r.event(now, key, telemetry.ReconcileNoop, "", 0, 0, nil)
}

func (r *Reconciler) takeLatency(now simtime.Time, key dataplane.VIP) simtime.Duration {
	at, ok := r.queuedAt[key]
	if !ok {
		return 0
	}
	delete(r.queuedAt, key)
	return now.Sub(at)
}

// DetectDrift scans observed state against desired and enqueues every
// mismatch. Returns the number of drifted keys. Drift is how externally
// mutated switches (a restored fleet member, an operator's out-of-band
// change) get pulled back to the spec.
func (r *Reconciler) DetectDrift(now simtime.Time) int {
	drifted := 0
	seen := make(map[dataplane.VIP]bool)
	for _, key := range r.desired.Keys() {
		seen[key] = true
		want := r.desired.VIPs[key]
		obs, ok := r.target.ObservedPool(key)
		if !ok || !SamePool(obs, want.Pool) {
			drifted++
			r.event(now, key, telemetry.ReconcileDrift, "", 0, 0, nil)
			r.enqueue(now, key, "Drift", "observed state diverged")
		}
	}
	for _, key := range r.target.ObservedVIPs() {
		if !seen[key] {
			drifted++
			r.event(now, key, telemetry.ReconcileDrift, "", 0, 0, nil)
			r.enqueue(now, key, "Drift", "undesired VIP observed")
		}
	}
	return drifted
}

// NextEventTime returns the earliest time queued work becomes ready.
func (r *Reconciler) NextEventTime() (simtime.Time, bool) { return r.q.NextDue() }

// Converged reports whether the queue is empty and every desired key is
// Applied at the current generation.
func (r *Reconciler) Converged() bool {
	if r.q.Len() != 0 {
		return false
	}
	for key := range r.desired.VIPs {
		st, ok := r.status[key]
		if !ok || st.Condition != CondApplied || st.ObservedGeneration != r.desired.Generation {
			return false
		}
	}
	return true
}

// Statuses returns every key's status, sorted by VIP spelling.
func (r *Reconciler) Statuses() []VIPStatus {
	out := make([]VIPStatus, 0, len(r.status))
	for _, st := range r.status {
		out = append(out, *st)
	}
	sortStatuses(out)
	return out
}

func sortStatuses(sts []VIPStatus) {
	for i := 1; i < len(sts); i++ {
		for j := i; j > 0 && sts[j].VIP < sts[j-1].VIP; j-- {
			sts[j], sts[j-1] = sts[j-1], sts[j]
		}
	}
}

func (r *Reconciler) setStatus(now simtime.Time, key dataplane.VIP, c Condition, reason, msg string, retries int) {
	st, ok := r.status[key]
	if !ok {
		st = &VIPStatus{VIP: FormatVIP(key)}
		r.status[key] = st
	}
	if st.Condition != c {
		st.LastTransition = now
	}
	st.Condition = c
	st.Reason = reason
	st.Message = msg
	st.Retries = retries
}

func (r *Reconciler) event(now simtime.Time, key dataplane.VIP, step telemetry.ReconcileStep, op string, retries int, lat simtime.Duration, err error) {
	e := telemetry.Event{Now: now, ReconcileStep: step, Op: op,
		Key: key.TelemetryKey(), Retries: retries, Duration: lat}
	if err != nil {
		e.Err = err.Error()
	}
	r.trace(e)
}

// trace emits one reconcile step labelled with the member and the desired
// generation (a no-op when untraced).
func (r *Reconciler) trace(e telemetry.Event) {
	if r.cfg.Tracer != nil {
		e.Kind, e.Member, e.Generation = telemetry.KindReconcile, r.cfg.Member, r.desired.Generation
		r.cfg.Tracer.Trace(e)
	}
}

// --- imperative edits ---------------------------------------------------
//
// The facade's AddVIP/RemoveVIP/AddDIP/RemoveDIP/UpdatePool are thin
// wrappers over these: each edits one key of the desired state and runs
// the same applyKey engine synchronously, reverting the edit when the
// write fails so desired state never silently diverges from what the
// caller was told.

// ErrPoolEmpty rejects edits that would leave a VIP with no backends.
var ErrPoolEmpty = errors.New("intent: empty DIP pool")

// EditAdd declares a new VIP and applies it synchronously.
func (r *Reconciler) EditAdd(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP, meterBytesPerSec float64) error {
	if len(pool) == 0 {
		return ErrPoolEmpty
	}
	if _, ok := r.desired.VIPs[vip]; ok {
		return dataplane.ErrVIPExists
	}
	return r.edit(now, vip, &VIPDesired{Pool: clonePool(pool), MeterBytesPerSec: meterBytesPerSec})
}

// EditRemove withdraws a VIP and applies the removal synchronously.
func (r *Reconciler) EditRemove(now simtime.Time, vip dataplane.VIP) error {
	_, want := r.desired.VIPs[vip]
	_, have := r.target.ObservedPool(vip)
	if !want && !have {
		return dataplane.ErrUnknownVIP
	}
	return r.edit(now, vip, nil)
}

// EditPool mutates a VIP's desired pool through fn and applies the result
// synchronously. When the VIP is on the switch but not yet in desired
// state (imperative callers predating a spec, or drift), its observed
// pool is adopted as the base.
func (r *Reconciler) EditPool(now simtime.Time, vip dataplane.VIP, fn func(pool []dataplane.DIP) ([]dataplane.DIP, error)) error {
	var base VIPDesired
	if want, ok := r.desired.VIPs[vip]; ok {
		base = VIPDesired{Pool: clonePool(want.Pool), MeterBytesPerSec: want.MeterBytesPerSec}
	} else if obs, ok := r.target.ObservedPool(vip); ok {
		base = VIPDesired{Pool: clonePool(obs)}
		if prev, ok := r.applied[vip]; ok {
			base.MeterBytesPerSec = prev.meter
		}
	} else {
		return dataplane.ErrUnknownVIP
	}
	pool, err := fn(base.Pool)
	if err != nil {
		return err
	}
	if len(pool) == 0 {
		return ErrPoolEmpty
	}
	base.Pool = pool
	return r.edit(now, vip, &base)
}

// edit stages one key's desired state (nil = remove), applies it, and
// reverts the stage on failure. Edits do not bump the generation — they
// mutate content within the current one; only applied specs move it.
// (Bumping here would strand other keys' ObservedGeneration behind the
// new value and wedge Converged.)
func (r *Reconciler) edit(now simtime.Time, vip dataplane.VIP, want *VIPDesired) error {
	prev, hadPrev := r.desired.VIPs[vip]
	if want == nil {
		delete(r.desired.VIPs, vip)
	} else {
		r.desired.VIPs[vip] = *want
	}
	if _, ok := r.queuedAt[vip]; !ok {
		r.queuedAt[vip] = now
	}
	if err := r.applyKey(now, vip); err != nil {
		if hadPrev {
			r.desired.VIPs[vip] = prev
		} else {
			delete(r.desired.VIPs, vip)
		}
		delete(r.queuedAt, vip)
		return err
	}
	r.q.Forget(vip)
	return nil
}
