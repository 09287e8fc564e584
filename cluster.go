package silkroad

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/intent"
	"repro/internal/netproto"
	"repro/internal/sched"
	"repro/internal/slo"
)

// Fleet errors.
var (
	// ErrSwitchDown is returned by reconcile writes against an
	// out-of-service member: the reconciler retries it with backoff until
	// the member is restored or the rollout rolls back.
	ErrSwitchDown = errors.New("silkroad: switch out of service")
	// ErrTransferActive rejects a drain, rejoin or Migrate while another
	// is in flight, and an upgrade of a member one involves.
	ErrTransferActive = errors.New("silkroad: a drain, rejoin or Migrate is already active")
	// ErrNoTransfer is returned by CancelTransfer with no transfer active.
	ErrNoTransfer = errors.New("silkroad: no active drain, rejoin or Migrate")
	// ErrUpgradeActive rejects StartUpgrade while an attached upgrade is
	// not done.
	ErrUpgradeActive = errors.New("silkroad: a rolling upgrade is already active")
	// ErrNotDrained rejects UpgradeSwitch while spray buckets still point
	// at the member: taking it down before migration would drop its flows.
	ErrNotDrained = errors.New("silkroad: switch still owns spray buckets")
	// ErrNotWarm rejects RejoinSwitch until the member announces every VIP
	// a healthy peer does and has no pending work: no cold table serves.
	ErrNotWarm = errors.New("silkroad: member not warm (VIPs missing or work pending)")
	// ErrNoPeer rejects failing or draining the last in-service member.
	ErrNoPeer = errors.New("silkroad: no other switch in service")
)

// The spray: bucketsPerSwitch resilient-ECMP buckets per member, each
// tuple hashed onto one with spraySeed. The transfer pace: every donor pipe
// of a drain, rejoin or Migrate hands over up to transferBatch records each
// transferPace of virtual time.
const (
	bucketsPerSwitch = 128
	spraySeed        = 0x5b4a7
	transferBatch    = 64
	transferPace     = 3 * Millisecond
)

// ClusterConfig parameterizes NewCluster.
type ClusterConfig struct {
	// Switches is the fleet size (default 1).
	Switches int
	// Switch is the per-member switch configuration. Telemetry and
	// FlightRecorder pointers are shared: the fleet reports into one
	// registry, with reconcile events labelled by member. Under SLO,
	// per-member SLIs need per-member registries: members beyond the first
	// get a fresh Telemetry and no FlightRecorder, and member 0 keeps the
	// configured pointers (a registry is created if nil).
	Switch Config
	// Fleet tunes the rolling reconciler. A nil Tracer reports into the
	// members' sinks (member 0's registry under SLO).
	Fleet FleetConfig
}

// ClusterStats counts the fleet's spray moves and handoffs.
type ClusterStats struct {
	Redirected  uint64       // spray buckets moved cold by switch failures
	Migrated    uint64       // spray buckets moved warm by drains and rejoins
	LastHandoff HandoffStats // the last completed drain, rejoin or Migrate, summed over its donor pipes
}

// Cluster is the fleet (§7): a layer of switches behind a resilient-ECMP
// spray and one rolling reconciler. Members share hash seeds, so a
// latest-version connection maps to the same DIP on any of them while
// their current rows agree slot for slot — version reuse can leave two
// members with the same DIPs in different slots (a DIP is picked by slot);
// each holds state only for the connections sprayed to it. Apply rolls a
// spec out one switch at a time, gated on each switch's pending-insert
// drain, rolling back on mid-rollout failure. FailSwitch loses a member's
// table, breaking its connections pinned to retired versions; DrainSwitch,
// UpgradeSwitch and RejoinSwitch move that state warm instead, and
// StartUpgrade rolls the whole fleet through them.
//
// The fleet has one timeline: AdvanceTo runs the members, the rollout, the
// active transfer and an attached upgrade in time order, and NextEventTime
// is the fleet's one deadline. Calls stage work; AdvanceTo runs it.
//
// Methods are safe for concurrent use: each takes the cluster lock, then
// member pipe locks.
type Cluster struct {
	mu   sync.Mutex
	cfg  Config // member configuration (newMember)
	sws  []*Switch
	down []bool
	// spray is the upstream resilient-ECMP table, bucket -> member; it
	// never points at an out-of-service member. origin is each bucket's
	// first owner, which a rejoin reclaims.
	spray, origin []int
	// sched holds the fleet's sources, in tie-winning order: one per member
	// slot, the rollout, the active transfer, then each upgrade as it is
	// attached. now is the fleet's current instant: the latest one
	// AdvanceTo reached or a call was made at. A source whose gate holds is
	// due then.
	sched *sched.Scheduler
	now   Time
	xfer  *transfer // the in-flight drain, rejoin or Migrate (handoff.go)
	up    *Upgrader // the last upgrade attached (upgrade.go)
	stats ClusterStats
	rec   *intent.ClusterReconciler
}

// fleetSource is a sched.Source made of two functions.
type fleetSource struct {
	next    func() (Time, bool)
	advance func(Time)
}

func (s fleetSource) NextEventTime() (Time, bool) { return s.next() }
func (s fleetSource) Advance(now Time)            { s.advance(now) }

// NewCluster builds a fleet of identically configured switches, every
// bucket sprayed round-robin over them, behind one rolling reconciler.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	n := max(cfg.Switches, 1)
	if cfg.Switch.SLO != nil && cfg.Switch.Telemetry == nil {
		cfg.Switch.Telemetry = NewTelemetry()
	}
	c := &Cluster{cfg: cfg.Switch, down: make([]bool, n), sched: sched.New(),
		spray: make([]int, n*bucketsPerSwitch), origin: make([]int, n*bucketsPerSwitch)}
	for i := 0; i < n; i++ {
		sw, err := c.newMember(i)
		if err != nil {
			return nil, err
		}
		c.sws = append(c.sws, sw)
	}
	for b := range c.spray {
		c.spray[b], c.origin[b] = b%n, b%n
	}
	fcfg := cfg.Fleet
	if fcfg.Tracer == nil {
		if c.cfg.SLO != nil {
			fcfg.Tracer = c.cfg.Telemetry
		} else {
			fcfg.Tracer = tracerFor(c.cfg)
		}
	}
	fleet := make([]intent.Target, n)
	for i := range fleet {
		fleet[i] = intentTarget{c: c, m: i}
		// Member slot i, re-read at call time (RestoreSwitch replaces the
		// switch); idle while the member is down.
		c.sched.AddSource(fleetSource{
			next: func() (Time, bool) {
				if c.down[i] {
					return 0, false
				}
				return c.sws[i].NextEventTime()
			},
			advance: func(now Time) { c.sws[i].AdvanceTo(now) },
		})
	}
	c.rec = intent.NewCluster(fleet, func() Time { return c.now }, fcfg)
	c.sched.AddSource(c.rec)
	c.sched.AddSource(fleetSource{next: c.nextPump, advance: c.pump})
	if c.cfg.SLO != nil {
		// A page-severity alert firing anywhere in the fleet holds the
		// rolling frontier: don't push a new generation onto a burning
		// fleet. The gate runs under c.mu and reads only evaluator state
		// (its report mutex), never a pipe lock.
		c.rec.SetRolloutGate(func() bool {
			return slices.ContainsFunc(c.sws, func(sw *Switch) bool {
				ev := sw.SLO()
				return ev != nil && ev.PageFiring()
			})
		})
	}
	return c, nil
}

// newMember builds member i: NewCluster's members and RestoreSwitch's
// rebooted ones come from here.
func (c *Cluster) newMember(i int) (*Switch, error) {
	mcfg := c.cfg
	if mcfg.SLO != nil && i > 0 {
		mcfg.Telemetry = NewTelemetry()
		mcfg.FlightRecorder = nil
	}
	return NewSwitch(mcfg)
}

// Switches returns the fleet size.
func (c *Cluster) Switches() int { return len(c.sws) }

// Switch returns member i (per-member inspection and fault injection). After
// RestoreSwitch it is a new switch, so do not keep it across one.
func (c *Cluster) Switch(i int) *Switch { return locked(&c.mu, func() *Switch { return c.sws[i] }) }

// Alive reports whether member i is in service.
func (c *Cluster) Alive(i int) bool { return locked(&c.mu, func() bool { return !c.down[i] }) }

// Stats returns the fleet's spray and handoff counters.
func (c *Cluster) Stats() ClusterStats { return locked(&c.mu, func() ClusterStats { return c.stats }) }

// bucketOf returns the spray bucket a tuple hashes to.
func (c *Cluster) bucketOf(t FiveTuple) int {
	return int(netproto.TupleHash(spraySeed, &t) % uint64(len(c.spray)))
}

// stamp moves the fleet's current instant to a call made at now.
func (c *Cluster) stamp(now Time) { c.now = max(c.now, now) }

// ProcessFrame routes one frame through the fleet: the spray picks the
// member from the tuple's bucket, and that member's pipeline processes it.
// It returns the member and the member's result.
func (c *Cluster) ProcessFrame(now Time, f *Frame) (member int, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(now)
	member = c.spray[c.bucketOf(f.Tuple)]
	return member, c.sws[member].ProcessFrame(now, f)
}

// EndConnection releases a connection on the member its tuple sprays to.
func (c *Cluster) EndConnection(now Time, t FiveTuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(now)
	c.sws[c.spray[c.bucketOf(t)]].EndConnection(now, t)
}

// Shadow reads a connection's pin through the exact-tuple CPU shadow of the
// member its tuple sprays to: the PCC ground truth, which digest aliasing
// cannot touch. version is member-local; dip, resolved through that
// version's pool, is comparable across members (zero if it resolves to
// none). member is set even when ok is false, so callers can tell a
// redirect from an expiry.
func (c *Cluster) Shadow(t FiveTuple) (member int, version uint32, dip DIP, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	member = c.spray[c.bucketOf(t)]
	eng := c.sws[member].eng
	eng.Inspect(eng.PipeOf(t), func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
		if version, ok = dp.LookupConn(t); ok {
			dip, _ = dp.SelectDIP(dataplane.VIPOf(t), version, t)
		}
	})
	return member, version, dip, ok
}

// AdvanceTo runs all fleet work due at or before now in time order: every
// in-service member's runtime, the rollout, the active transfer and an
// attached upgrade, members first at a shared instant. It steps from one
// fleet deadline to the next, so a source waiting on member state (the
// rollout's drain gate, a transfer's cutover, the upgrade's waits) acts at
// the member event that satisfies it, however far one call reaches. It is
// the one way a caller moves the fleet's virtual time; NextEventTime says
// when it next needs to. A ManualClock in the member configuration is
// stepped to now.
func (c *Cluster) AdvanceTo(now Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		next, ok := c.sched.Next()
		if !ok || next.After(now) {
			break
		}
		c.stamp(next)
		c.sched.RunUntil(next)
	}
	c.stamp(now)
	if mc, ok := c.cfg.Clock.(*sched.ManualClock); ok {
		mc.Set(now)
	}
}

// NextEventTime returns the fleet's one deadline: the earliest instant a
// member, the rollout, the active transfer or an attached upgrade has work
// due. A converged idle fleet reports none at or before its clock.
func (c *Cluster) NextEventTime() (Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sched.Next()
}

// member checks that i names a member.
func (c *Cluster) member(i int) error {
	if i < 0 || i >= len(c.sws) {
		return fmt.Errorf("silkroad: no switch %d", i)
	}
	return nil
}

// inService checks that i names an in-service member.
func (c *Cluster) inService(i int) error {
	if err := c.member(i); err != nil || !c.down[i] {
		return err
	}
	return fmt.Errorf("silkroad: switch %d: %w", i, ErrSwitchDown)
}

// redistribute plans moving member i's buckets round-robin onto the other
// in-service members, which it returns: dest[b] is bucket b's new owner, -1
// for a bucket that stays. FailSwitch applies the plan at once, a drain at
// its cutover.
func (c *Cluster) redistribute(i int) (dest, survivors []int) {
	for j := range c.sws {
		if j != i && !c.down[j] {
			survivors = append(survivors, j)
		}
	}
	if len(survivors) == 0 {
		return nil, nil
	}
	dest = make([]int, len(c.spray))
	k := 0
	for b, m := range c.spray {
		dest[b] = -1
		if m == i {
			dest[b] = survivors[k%len(survivors)]
			k++
		}
	}
	return dest, survivors
}

// FailSwitch takes member i out of service cold: its spray buckets move
// to the survivors, redirecting its connections, and its ConnTable state is
// lost. A drain or rejoin involving the member is cancelled first, so no
// cutover can hand live buckets to it.
func (c *Cluster) FailSwitch(now Time, i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(now)
	if err := c.inService(i); err != nil {
		return err
	}
	dest, _ := c.redistribute(i)
	if dest == nil {
		return ErrNoPeer
	}
	if c.xfer != nil && slices.Contains(c.xfer.members, i) {
		c.cancelTransfer(now)
	}
	c.stats.Redirected += uint64(c.flip(dest))
	c.down[i] = true
	return nil
}

// flip points every bucket dest moves at its new owner and returns how
// many moved.
func (c *Cluster) flip(dest []int) int {
	n := 0
	for b, m := range dest {
		if m >= 0 {
			c.spray[b] = m
			n++
		}
	}
	return n
}

// UpgradeSwitch takes a drained member out of service: unlike FailSwitch
// it refuses while any spray bucket still points at it, or a transfer
// involves it, so an upgrade never drops flows that were not migrated.
// Public: an upgrade run by hand takes a member down between DrainSwitch
// and RejoinSwitch with it.
func (c *Cluster) UpgradeSwitch(i int) error {
	return locked(&c.mu, func() error { return c.upgradeSwitch(i) })
}

func (c *Cluster) upgradeSwitch(i int) error {
	if err := c.inService(i); err != nil {
		return err
	}
	if slices.Contains(c.spray, i) {
		return ErrNotDrained
	}
	if c.xfer != nil && slices.Contains(c.xfer.members, i) {
		return ErrTransferActive
	}
	c.down[i] = true
	return nil
}

// RestoreSwitch brings member i back as a freshly built switch with an
// empty ConnTable (state does not survive a reboot). It does not return
// the member's buckets: a cold table must not take traffic, since
// connections pinned to retired pool versions would break on it. The
// survivors keep serving until RejoinSwitch has passed the warm gate and
// migrated the member's shard back. Public: the reconcile soak restores a
// failed member with it.
func (c *Cluster) RestoreSwitch(i int) error {
	return locked(&c.mu, func() error { return c.restoreSwitch(i) })
}

func (c *Cluster) restoreSwitch(i int) error {
	if err := c.member(i); err != nil {
		return err
	}
	if !c.down[i] {
		return fmt.Errorf("silkroad: switch %d is in service", i)
	}
	sw, err := c.newMember(i)
	if err != nil {
		return err
	}
	c.sws[i], c.down[i] = sw, false
	return nil
}

// ReannounceTo installs on member i every VIP its first in-service peer
// serves that i lacks, with the pool that peer last requested: the
// re-announce after a reboot, which a rolling upgrade makes too. Public: a
// member restored by hand needs it to pass RejoinSwitch's warm gate.
func (c *Cluster) ReannounceTo(now Time, i int) error {
	return locked(&c.mu, func() error { return c.reannounce(now, i) })
}

func (c *Cluster) reannounce(now Time, i int) error {
	c.stamp(now)
	peer, ok := c.peer(i)
	if !ok {
		return ErrNoPeer
	}
	t := intentTarget{c: c, m: i}
	for _, vip := range peer.ObservedVIPs() {
		pool, _ := peer.ObservedPool(vip)
		if err := t.AddVIP(now, vip, pool, 0); err != nil && !errors.Is(err, dataplane.ErrVIPExists) {
			return err
		}
	}
	return nil
}

// Writes returns the writes the rolling reconciler has issued, summed
// over the members.
func (c *Cluster) Writes() uint64 {
	return locked(&c.mu, func() (n uint64) {
		for i := range c.sws {
			n += c.rec.Member(i).Writes()
		}
		return n
	})
}

// SLO aggregates every member's current SLO report into a fleet view:
// summed throughput SLIs, worst-switch attribution, and the union of
// active alerts with member labels. Members without an evaluator
// contribute empty reports.
func (c *Cluster) SLO() FleetSLOReport {
	return locked(&c.mu, func() FleetSLOReport {
		reports := make([]SLOReport, len(c.sws))
		for i, sw := range c.sws {
			if ev := sw.SLO(); ev != nil {
				reports[i] = ev.Report()
			}
		}
		return slo.Aggregate(reports)
	})
}

// RolloutPaused reports whether an in-flight rolling update is currently
// held by a firing fleet alert.
func (c *Cluster) RolloutPaused() bool { return locked(&c.mu, c.rec.RolloutPaused) }

// Apply validates and stages spec for a rolling fleet update, and returns
// the statuses as staged. The rollout runs under AdvanceTo, from the
// fleet's current instant.
func (c *Cluster) Apply(now Time, spec *ClusterSpec) ([]VIPStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(now)
	err := c.rec.SetSpec(now, spec)
	return c.rec.Statuses(), err
}

// Converged reports fleet-wide convergence at the staged generation.
func (c *Cluster) Converged() bool { return locked(&c.mu, c.rec.Converged) }

// Generation returns the staged spec generation.
func (c *Cluster) Generation() uint64 { return locked(&c.mu, c.rec.Generation) }

// Statuses aggregates per-VIP conditions across the fleet: worst
// condition wins, observed generation is the fleet minimum.
func (c *Cluster) Statuses() []VIPStatus { return locked(&c.mu, c.rec.Statuses) }

// DetectDrift scans every member when the fleet is idle and re-enters the
// rolling phase on any divergence, which AdvanceTo then runs. Returns
// drifted key count.
func (c *Cluster) DetectDrift(now Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(now)
	return c.rec.DetectDrift(now)
}
