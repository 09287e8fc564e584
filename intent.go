package silkroad

import (
	"fmt"
	"sync"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/intent"
	"repro/internal/netwide"
	"repro/internal/slo"
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
	// VIPSpec declares one VIP's desired pool, meter and demands.
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

// intentTarget adapts the engine's fanout layer as the reconciler's
// Target: writes go to every pipe of the chip, with rollback on partial
// failure. Reads come from pipe 0 (pipes are kept identical by fanout);
// ObservedPool reports the newest requested pool (TargetPool), so diffs
// account for in-flight updates.
type intentTarget struct{ s *Switch }

func (t intentTarget) ObservedVIPs() []VIP {
	var vips []VIP
	t.s.eng.Inspect(0, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
		vips = dp.VIPs()
	})
	return vips
}

func (t intentTarget) ObservedPool(vip VIP) ([]DIP, bool) {
	var pool []DIP
	var err error
	t.s.eng.Inspect(0, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
		pool, err = cp.TargetPool(vip)
	})
	return pool, err == nil
}

func (t intentTarget) AddVIP(now Time, vip VIP, pool []DIP, meterBytesPerSec float64) error {
	return t.s.eng.AddVIP(now, vip, pool, meterBytesPerSec)
}

func (t intentTarget) RemoveVIP(now Time, vip VIP) error { return t.s.eng.RemoveVIP(now, vip) }

func (t intentTarget) UpdatePool(now Time, vip VIP, pool []DIP) error {
	defer t.s.poke()
	return t.s.eng.RequestUpdate(now, vip, pool)
}

func (t intentTarget) PendingWork() int { return t.s.PendingWork() }

// PendingWork sums the switch's undrained control-plane load across every
// pipe: learn events awaiting flush, queued CPU insertions, in-flight and
// queued pool updates. Zero means drained — the §4.2 condition rolling
// fleet updates gate on before moving to the next switch.
func (s *Switch) PendingWork() int { return s.eng.PendingWork() }

// intentSource runs the reconciler's retry/backoff work on the switch
// runtime, so failed applies re-fire in time order with all other
// scheduled work under both Run and AdvanceTo.
type intentSource struct{ s *Switch }

func (is intentSource) NextEventTime() (Time, bool) {
	st := is.s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.NextDue()
}

// Advance runs every reconcile round due at or before now, each at its own
// deadline: a retry's backoff is measured from when it was due, not from
// how far the scheduler's step horizon reached.
func (is intentSource) Advance(now Time) {
	st := is.s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		due, ok := st.rec.NextDue()
		if !ok || now.Before(due) {
			return
		}
		st.rec.Reconcile(due)
	}
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
	lastGen := st.rec.Generation()
	d, err := spec.Normalize(lastGen)
	if err != nil {
		return st.rec.Statuses(), err
	}
	if d.Generation == lastGen && !intent.SameDesired(d, st.rec.Desired()) {
		return st.rec.Statuses(), &SpecValidationError{Errors: []FieldError{{
			Field: "generation",
			Msg:   fmt.Sprintf("generation %d already applied with different content", d.Generation),
		}}}
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
func (s *Switch) VIPStatuses() []VIPStatus {
	st := s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.Statuses()
}

// SpecGeneration returns the desired-state generation currently staged.
func (s *Switch) SpecGeneration() uint64 {
	st := s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.Generation()
}

// AppliedSpec returns a copy of the last spec handed to Apply (nil when
// the switch has only seen imperative edits), with its effective
// generation filled in.
func (s *Switch) AppliedSpec() *ClusterSpec {
	st := s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSpec.Clone()
}

// Converged reports whether every desired VIP is Applied at the staged
// generation with no queued reconcile work.
func (s *Switch) Converged() bool {
	st := s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.Converged()
}

// DetectDrift scans observed against desired state and queues every
// divergence for re-convergence (picked up by the runtime, or the next
// Reconcile). Returns the number of drifted VIPs.
func (s *Switch) DetectDrift(now Time) int {
	defer s.poke()
	st := s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.DetectDrift(now)
}

// Reconcile runs one reconcile round immediately (due retries and drift
// repairs); under Run this also happens autonomously. Returns the number
// of keys still queued.
func (s *Switch) Reconcile(now Time) int {
	defer s.poke()
	st := s.intent
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.Reconcile(now)
}

// --- fleet facade -------------------------------------------------------

// ClusterConfig parameterizes NewCluster.
type ClusterConfig struct {
	// Switches is the fleet size (default 1).
	Switches int
	// Switch is the per-member switch configuration. Telemetry and
	// FlightRecorder pointers are shared: the whole fleet reports into
	// one registry, with reconcile events labelled by member.
	//
	// Exception: when Switch.SLO is set, per-member SLIs need per-member
	// registries, so members beyond the first get a fresh Telemetry (and
	// no FlightRecorder — its journal stays with member 0); member 0 keeps
	// the configured pointers, with a registry auto-created if nil.
	Switch Config
	// Topology, when non-nil, gates Apply on netwide placement admission
	// for specs that declare VIP demands.
	Topology *netwide.Topology
	// Reconcile tunes the per-member reconcile engines.
	Reconcile ReconcilerConfig
}

// Cluster is a reconciled fleet of switches: Apply stages a spec and
// rolls it out one switch at a time, gated on each switch's
// pending-insert drain, rolling back on mid-rollout failure. Drive
// convergence with Reconcile (or AdvanceTo on the members plus periodic
// Reconcile calls under virtual time).
type Cluster struct {
	mu       sync.Mutex
	sws      []*Switch
	rec      *intent.ClusterReconciler
	lastSpec *ClusterSpec
}

// switchFleet adapts the member switches as an intent.Fleet.
type switchFleet struct{ sws []*Switch }

func (f switchFleet) Members() int               { return len(f.sws) }
func (f switchFleet) Target(i int) intent.Target { return intentTarget{f.sws[i]} }

// NewCluster builds a fleet of identically configured switches behind one
// rolling reconciler.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	n := cfg.Switches
	if n <= 0 {
		n = 1
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		mcfg := cfg.Switch
		if mcfg.SLO != nil {
			if i == 0 {
				if mcfg.Telemetry == nil {
					mcfg.Telemetry = NewTelemetry()
				}
			} else {
				mcfg.Telemetry = NewTelemetry()
				mcfg.FlightRecorder = nil
			}
		}
		sw, err := NewSwitch(mcfg)
		if err != nil {
			return nil, err
		}
		c.sws = append(c.sws, sw)
	}
	fcfg := intent.FleetConfig{Config: cfg.Reconcile, Topology: cfg.Topology}
	if fcfg.Tracer == nil {
		if cfg.Switch.SLO != nil {
			fcfg.Tracer = c.sws[0].Telemetry()
		} else {
			fcfg.Tracer = tracerFor(cfg.Switch)
		}
	}
	c.rec = intent.NewCluster(switchFleet{c.sws}, fcfg)
	if cfg.Switch.SLO != nil {
		// A page-severity alert firing anywhere in the fleet holds the
		// rolling frontier: don't push a new generation onto a burning
		// fleet. The gate reads only evaluator state (its report mutex),
		// never a pipe lock.
		sws := c.sws
		c.rec.SetRolloutGate(func() (bool, string) {
			for i, sw := range sws {
				if ev := sw.SLO(); ev != nil && ev.PageFiring() {
					return true, fmt.Sprintf("member %d page firing", i)
				}
			}
			return false, ""
		})
	}
	return c, nil
}

// SLO aggregates every member's current SLO report into a fleet view:
// summed throughput SLIs, worst-switch attribution, and the union of
// active alerts with member labels. Members without an evaluator
// contribute empty reports.
func (c *Cluster) SLO() FleetSLOReport {
	reports := make([]SLOReport, len(c.sws))
	for i, sw := range c.sws {
		if ev := sw.SLO(); ev != nil {
			reports[i] = ev.Report()
		}
	}
	return slo.Aggregate(reports)
}

// RolloutPaused reports whether an in-flight rolling update is currently
// held by a firing fleet alert.
func (c *Cluster) RolloutPaused() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.RolloutPaused()
}

// Size returns the fleet size.
func (c *Cluster) Size() int { return len(c.sws) }

// Switch returns member i (packet injection, per-member inspection).
func (c *Cluster) Switch(i int) *Switch { return c.sws[i] }

// Apply validates and stages spec for a rolling fleet update, running the
// first reconcile round immediately. The rollout continues via Reconcile.
func (c *Cluster) Apply(now Time, spec *ClusterSpec) ([]VIPStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.rec.SetSpec(now, spec); err != nil {
		return c.rec.Statuses(), err
	}
	c.rec.Step(now)
	applied := spec.Clone()
	applied.Generation = c.rec.Generation()
	c.lastSpec = applied
	return c.rec.Statuses(), nil
}

// Reconcile runs one fleet reconcile round; returns true once the fleet
// is converged at the staged generation.
func (c *Cluster) Reconcile(now Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.Step(now)
}

// Converged reports fleet-wide convergence at the staged generation.
func (c *Cluster) Converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.Converged()
}

// Generation returns the staged spec generation.
func (c *Cluster) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.Generation()
}

// Statuses aggregates per-VIP conditions across the fleet: worst
// condition wins, observed generation is the fleet minimum.
func (c *Cluster) Statuses() []VIPStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.Statuses()
}

// AppliedSpec returns a copy of the last accepted spec.
func (c *Cluster) AppliedSpec() *ClusterSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSpec.Clone()
}

// DetectDrift scans every member when the fleet is idle and re-enters the
// rolling phase on any divergence. Returns drifted key count.
func (c *Cluster) DetectDrift(now Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.DetectDrift(now)
}

// NextDue returns the earliest time queued fleet work becomes ready.
func (c *Cluster) NextDue() (Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.NextDue()
}

// AdvanceTo advances every member's event runtime to now (virtual-time
// drivers). Fleet reconcile rounds are separate: call Reconcile.
func (c *Cluster) AdvanceTo(now Time) {
	for _, sw := range c.sws {
		sw.AdvanceTo(now)
	}
}

// Close releases every member's background machinery.
func (c *Cluster) Close() error {
	for _, sw := range c.sws {
		_ = sw.Close()
	}
	return nil
}
