package silkroad

import (
	"sync"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/intent"
)

// Declarative control-plane surface, re-exported from internal/intent.
// A ClusterSpec names every VIP with its pool, meter and generation;
// Switch.Apply / Cluster.Apply converge the switch (or fleet) onto it and
// report per-VIP status conditions. The imperative methods (AddVIP,
// AddDIP, UpdatePool, ...) are thin single-key edits of the same desired
// state, applied through the same reconcile engine.
type (
	// ClusterSpec is the versioned desired state of a switch or fleet.
	ClusterSpec = intent.ClusterSpec
	// VIPSpec declares one VIP's desired pool and meter.
	VIPSpec = intent.VIPSpec
	// VIPStatus is one VIP's reconcile status condition.
	VIPStatus = intent.VIPStatus
	// SpecCondition is a VIPStatus condition value.
	SpecCondition = intent.Condition
	// FieldError locates one spec validation failure.
	FieldError = intent.FieldError
	// SpecValidationError lists every validation failure in a spec.
	SpecValidationError = intent.ValidationError
	// ReconcilerConfig tunes the reconcile engine (workqueue bound,
	// retry/backoff budget).
	ReconcilerConfig = intent.Config
	// FleetConfig tunes a Cluster's rolling reconciler: the per-member
	// ReconcilerConfig and the rollout backoff.
	FleetConfig = intent.FleetConfig
)

// Status conditions.
const (
	CondApplied  = intent.CondApplied
	CondDegraded = intent.CondDegraded
	CondError    = intent.CondError
)

// SpecVersion is the schema version accepted in ClusterSpec.Version.
const SpecVersion = intent.SpecVersion

// ParseSpec decodes a JSON ClusterSpec strictly (unknown fields are
// errors). Validation happens at Apply.
func ParseSpec(data []byte) (*ClusterSpec, error) { return intent.ParseSpec(data) }

// intentState is the facade's desired-state store: the reconciler plus
// the last spec applied wholesale (for /configz-style surfaces). Guarded
// by its own mutex — the reconciler calls back into the pipe-locked
// facade, so this lock is always taken first and never while a pipe lock
// is held.
type intentState struct {
	mu       sync.Mutex
	rec      *intent.Reconciler
	lastSpec *ClusterSpec
}

// intentTarget adapts a switch's engine as the reconciler's Target: writes
// go to every pipe of the chip, with rollback on partial failure. Reads come
// from pipe 0 (pipes are kept identical by fanout); ObservedPool reports the
// newest requested pool (TargetPool), so diffs account for in-flight
// updates. A fleet member's target (c set) re-reads member m on every call,
// so it follows RestoreSwitch, and an out-of-service member reads empty and
// refuses writes with ErrSwitchDown; its callers hold c.mu.
type intentTarget struct {
	s *Switch
	c *Cluster
	m int
}

// sw is the switch the target writes to, or nil while it is out of service.
func (t intentTarget) sw() *Switch {
	if t.c == nil {
		return t.s
	}
	if t.c.down[t.m] {
		return nil
	}
	return t.c.sws[t.m]
}

func (t intentTarget) ObservedVIPs() []VIP {
	var vips []VIP
	if s := t.sw(); s != nil {
		s.eng.Inspect(0, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			vips = dp.VIPs()
		})
	}
	return vips
}

func (t intentTarget) ObservedPool(vip VIP) (pool []DIP, ok bool) {
	if s := t.sw(); s != nil {
		s.eng.Inspect(0, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			var err error
			pool, err = cp.TargetPool(vip)
			ok = err == nil
		})
	}
	return pool, ok
}

func (t intentTarget) AddVIP(now Time, vip VIP, pool []DIP, meterBytesPerSec float64) error {
	if s := t.sw(); s != nil {
		return s.eng.AddVIP(now, vip, pool, meterBytesPerSec)
	}
	return ErrSwitchDown
}

func (t intentTarget) RemoveVIP(now Time, vip VIP) error {
	if s := t.sw(); s != nil {
		return s.eng.RemoveVIP(now, vip)
	}
	return ErrSwitchDown
}

func (t intentTarget) UpdatePool(now Time, vip VIP, pool []DIP) error {
	if s := t.sw(); s != nil {
		defer s.poke()
		return s.eng.RequestUpdate(now, vip, pool)
	}
	return ErrSwitchDown
}

func (t intentTarget) PendingWork() int {
	if s := t.sw(); s != nil {
		return s.PendingWork()
	}
	return 0
}

// PendingWork sums the switch's undrained control-plane load across every
// pipe: learn events awaiting flush, queued CPU insertions, in-flight and
// queued pool updates. Zero means drained — the §4.2 condition rolling
// fleet updates gate on before moving to the next switch.
func (s *Switch) PendingWork() int { return s.eng.PendingWork() }

// locked returns f's result, run under mu.
func locked[T any](mu *sync.Mutex, f func() T) T {
	mu.Lock()
	defer mu.Unlock()
	return f()
}

// intentSource runs the reconciler on the switch runtime under the intent
// lock, so failed applies re-fire in time order with all other scheduled
// work under both Run and AdvanceTo.
type intentSource struct{ st *intentState }

func (is intentSource) NextEventTime() (Time, bool) {
	is.st.mu.Lock()
	defer is.st.mu.Unlock()
	return is.st.rec.NextEventTime()
}

func (is intentSource) Advance(now Time) {
	is.st.mu.Lock()
	defer is.st.mu.Unlock()
	is.st.rec.Advance(now)
}

// Apply converges the switch onto spec and returns the per-VIP statuses.
// Validation failures return a *SpecValidationError (with every field
// error) and touch nothing. Keys whose apply fails transiently are left
// Degraded and retried with backoff on the switch runtime; Statuses/
// Converged report progress.
//
// Generation semantics: a spec with Generation 0 is auto-assigned
// last+1; an explicit generation below the last applied one is rejected
// as stale, and re-applying the last generation is accepted only when
// the content is unchanged (an idempotent no-op).
func (s *Switch) Apply(now Time, spec *ClusterSpec) ([]VIPStatus, error) {
	defer s.poke()
	st := s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	d, err := spec.Stage(st.rec.Desired())
	if err != nil {
		return st.rec.Statuses(), err
	}
	st.rec.SetDesired(now, d)
	st.rec.Reconcile(now)
	applied := spec.Clone()
	applied.Generation = d.Generation
	st.lastSpec = applied
	return st.rec.Statuses(), nil
}

// VIPStatuses returns the reconcile status of every VIP the switch's
// desired state tracks.
func (s *Switch) VIPStatuses() []VIPStatus { return locked(&s.intent.mu, s.intent.rec.Statuses) }

// SpecGeneration returns the desired-state generation currently staged.
func (s *Switch) SpecGeneration() uint64 { return locked(&s.intent.mu, s.intent.rec.Generation) }

// AppliedSpec returns a copy of the last spec handed to Apply (nil when
// the switch has only seen imperative edits), with its effective
// generation filled in.
func (s *Switch) AppliedSpec() *ClusterSpec {
	return locked(&s.intent.mu, func() *ClusterSpec { return s.intent.lastSpec.Clone() })
}

// Converged reports whether every desired VIP is Applied at the staged
// generation with no queued reconcile work.
func (s *Switch) Converged() bool { return locked(&s.intent.mu, s.intent.rec.Converged) }

// DetectDrift scans observed against desired state and queues every
// divergence for re-convergence, which the runtime picks up (under Run, or
// at the next AdvanceTo). Returns the number of drifted VIPs.
func (s *Switch) DetectDrift(now Time) int {
	defer s.poke()
	return locked(&s.intent.mu, func() int { return s.intent.rec.DetectDrift(now) })
}
