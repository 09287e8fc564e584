package intent

import (
	"repro/internal/dataplane"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// FleetConfig parameterizes a ClusterReconciler.
type FleetConfig struct {
	// Config is the per-member reconciler configuration (Member is set
	// per member automatically).
	Config
	// RolloutBackoff is the delay before re-attempting a rollout after a
	// rollback (default 10ms virtual, doubling per attempt up to
	// MaxBackoff).
	RolloutBackoff simtime.Duration
}

// rolloutPhase is the fleet state machine.
type rolloutPhase int

const (
	phaseIdle    rolloutPhase = iota // converged at cur
	phaseRolling                     // advancing frontier through members
	phaseBackoff                     // rolled back, waiting to retry
)

// ClusterReconciler rolls a Desired state across a fleet one switch at a
// time: member i receives the new generation only after members 0..i-1
// have applied it AND drained their pending work (PendingWork() == 0 —
// the §4.2 pending-insert discipline lifted fleet-wide, so at most one
// switch is absorbing a pool change at any moment). When a member fails
// mid-rollout (retry budget exhausted), every already-updated member is
// rolled back to the previous generation and the rollout retries after a
// backoff.
//
// It is a sched.Source on the fleet's timeline. Its timers are the members'
// queued retries and the rollout backoff; its gates (the drain gate and the
// rollout gate) are level-triggered: while they let the frontier move, the
// rollout is due at the fleet's current instant, which now reads.
type ClusterReconciler struct {
	cfg  FleetConfig
	recs []*Reconciler
	now  func() simtime.Time

	prev Desired // last fleet-wide converged state (rollback point)
	cur  Desired // state being rolled out

	phase    rolloutPhase
	frontier int          // next member to bring to cur
	retryAt  simtime.Time // phaseBackoff: when to retry the rollout
	attempt  int          // rollout attempts for cur

	gate func() bool // optional rollout gate (SLO page firing)
}

// SetRolloutGate installs a predicate consulted before the frontier
// advances during a rollout. While it returns true (e.g. a page-severity
// SLO alert is firing somewhere in the fleet), the rollout holds:
// already-updated members keep servicing their queued retries, but no
// further switch receives the new generation until the gate clears.
func (c *ClusterReconciler) SetRolloutGate(gate func() (pause bool)) {
	c.gate = gate
}

// RolloutPaused reports whether the gate currently holds an in-flight
// rollout.
func (c *ClusterReconciler) RolloutPaused() bool {
	return c.phase == phaseRolling && c.gate != nil && c.gate()
}

// NewCluster builds a ClusterReconciler over a fleet, one target per
// switch; now reads the fleet's current instant.
func NewCluster(fleet []Target, now func() simtime.Time, cfg FleetConfig) *ClusterReconciler {
	if cfg.RolloutBackoff <= 0 {
		cfg.RolloutBackoff = 10 * simtime.Millisecond
	}
	cfg.Config = cfg.Config.withDefaults()
	c := &ClusterReconciler{cfg: cfg, now: now}
	for i, t := range fleet {
		mc := cfg.Config
		mc.Member = i
		c.recs = append(c.recs, New(t, mc))
	}
	return c
}

// SetSpec validates and stages a new spec for rollout. The returned error
// is a *ValidationError.
func (c *ClusterReconciler) SetSpec(now simtime.Time, spec *ClusterSpec) error {
	d, err := spec.Stage(c.cur)
	if err != nil || d.Generation == c.cur.Generation {
		return err // an idempotent re-apply stages nothing
	}
	c.prev = c.cur
	if c.prev.VIPs == nil {
		c.prev = Desired{VIPs: map[dataplane.VIP]VIPDesired{}}
	}
	c.cur = d
	c.phase = phaseRolling
	c.frontier = 0
	c.attempt = 0
	return nil
}

// sameDesired reports whether two desired states declare the same VIPs
// with the same pools and meters (generation excluded).
func sameDesired(a, b Desired) bool {
	if len(a.VIPs) != len(b.VIPs) {
		return false
	}
	for k, av := range a.VIPs {
		bv, ok := b.VIPs[k]
		if !ok || av.MeterBytesPerSec != bv.MeterBytesPerSec || !SamePool(av.Pool, bv.Pool) {
			return false
		}
	}
	return true
}

// NextEventTime returns when the rollout next has work: the backoff
// deadline, a queued retry of a member it has reached, or the fleet's
// current instant while the frontier can move — its gates are open and the
// frontier member has a generation to take or has converged on it.
func (c *ClusterReconciler) NextEventTime() (simtime.Time, bool) {
	switch c.phase {
	case phaseIdle:
		return 0, false
	case phaseBackoff:
		return c.retryAt, true
	}
	if c.frontier == len(c.recs) {
		return c.now(), true
	}
	var next simtime.Time
	found := false
	consider := func(t simtime.Time, ok bool) {
		if ok && (!found || t.Before(next)) {
			next, found = t, true
		}
	}
	for _, rec := range c.recs[:c.frontier] {
		consider(rec.NextEventTime())
	}
	if rec := c.recs[c.frontier]; c.gateOpen() {
		if rec.Generation() != c.cur.Generation || rec.Converged() {
			return c.now(), true
		}
		consider(rec.NextEventTime())
	}
	return next, found
}

// Advance runs every rollout round due at or before now, each at its own
// deadline, until nothing is due at now. With NextEventTime it makes the
// rollout a sched.Source.
func (c *ClusterReconciler) Advance(now simtime.Time) {
	for {
		due, ok := c.NextEventTime()
		if !ok || now.Before(due) {
			return
		}
		c.round(due)
	}
}

// round runs one rollout round at now: members already at the generation
// run their due retries, then the frontier member, if its gates are open,
// takes the generation, rolls the fleet back on failure, or hands the
// frontier on once converged.
func (c *ClusterReconciler) round(now simtime.Time) {
	if c.phase == phaseBackoff {
		c.phase = phaseRolling
		c.frontier = 0
	}
	for _, rec := range c.recs[:c.frontier] {
		rec.Advance(now)
	}
	if c.frontier == len(c.recs) {
		c.phase = phaseIdle
		c.prev = c.cur
		return
	}
	if !c.gateOpen() {
		return
	}
	rec := c.recs[c.frontier]
	if rec.Generation() != c.cur.Generation {
		rec.SetDesired(now, c.cur)
	}
	rec.Advance(now)
	switch {
	case c.memberFailed(rec):
		c.rollback(now)
	case rec.Converged():
		c.frontier++
		if c.frontier == len(c.recs) {
			c.phase = phaseIdle
			c.prev = c.cur
		}
	}
}

// gateOpen reports whether the frontier may move: the rollout gate does not
// hold it, and the member before it has applied its writes AND drained its
// pending inserts.
func (c *ClusterReconciler) gateOpen() bool {
	if c.gate != nil && c.gate() {
		return false
	}
	if c.frontier == 0 {
		return true
	}
	prev := c.recs[c.frontier-1]
	return prev.Converged() && prev.target.PendingWork() == 0
}

// memberFailed reports whether the member's retry budget ran out on any
// key at the current generation.
func (c *ClusterReconciler) memberFailed(rec *Reconciler) bool {
	for _, st := range rec.Statuses() {
		if st.Condition == CondError {
			return true
		}
	}
	return false
}

// rollback returns every member at or before the frontier to the previous
// generation and schedules a rollout retry with doubling backoff.
func (c *ClusterReconciler) rollback(now simtime.Time) {
	for i := c.frontier; i >= 0; i-- {
		rec := c.recs[i]
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Trace(telemetry.Event{Kind: telemetry.KindReconcile, Now: now,
				Member: i, ReconcileStep: telemetry.ReconcileRollback, Generation: c.cur.Generation})
		}
		rec.SetDesired(now, c.prev)
		rec.Reconcile(now)
	}
	c.attempt++
	c.retryAt = now.Add(Backoff(c.cfg.RolloutBackoff, c.cfg.MaxBackoff, c.attempt))
	c.phase = phaseBackoff
}

// Converged reports whether every member is converged at the staged
// generation.
func (c *ClusterReconciler) Converged() bool {
	if c.phase != phaseIdle {
		return false
	}
	for _, rec := range c.recs {
		if !rec.Converged() {
			return false
		}
	}
	return true
}

// Generation returns the staged (latest accepted) generation.
func (c *ClusterReconciler) Generation() uint64 { return c.cur.Generation }

// Member returns member i's reconciler (tests and debug surfaces).
func (c *ClusterReconciler) Member(i int) *Reconciler { return c.recs[i] }

// DetectDrift runs drift scans across the fleet when idle; any hit
// re-enters the rolling phase so drifted members reconverge under the
// same one-at-a-time discipline. Returns total drifted keys.
func (c *ClusterReconciler) DetectDrift(now simtime.Time) int {
	if c.phase != phaseIdle {
		return 0
	}
	total := 0
	for _, rec := range c.recs {
		total += rec.DetectDrift(now)
	}
	if total > 0 {
		c.phase = phaseRolling
		c.frontier = 0
	}
	return total
}

// Statuses aggregates per-VIP status across members: the worst condition
// wins (Error > Degraded > Applied) and the observed generation is the
// minimum across members — a VIP is only "at" a generation once the whole
// fleet is.
func (c *ClusterReconciler) Statuses() []VIPStatus {
	agg := make(map[string]*VIPStatus)
	for _, rec := range c.recs {
		for _, st := range rec.Statuses() {
			cur, ok := agg[st.VIP]
			if !ok {
				cp := st
				agg[st.VIP] = &cp
				continue
			}
			if condRank(st.Condition) > condRank(cur.Condition) {
				cur.Condition = st.Condition
				cur.Reason = st.Reason
				cur.Message = st.Message
				cur.Retries = st.Retries
				cur.LastTransition = st.LastTransition
			}
			if st.ObservedGeneration < cur.ObservedGeneration {
				cur.ObservedGeneration = st.ObservedGeneration
			}
		}
	}
	out := make([]VIPStatus, 0, len(agg))
	for _, st := range agg {
		if c.RolloutPaused() && st.ObservedGeneration < c.cur.Generation &&
			condRank(st.Condition) < condRank(CondDegraded) {
			st.Condition = CondDegraded
			st.Reason = "RolloutPaused"
			st.Message = "rollout held by firing fleet alert"
		}
		out = append(out, *st)
	}
	sortStatuses(out)
	return out
}

func condRank(c Condition) int {
	switch c {
	case CondError:
		return 2
	case CondDegraded:
		return 1
	default:
		return 0
	}
}
