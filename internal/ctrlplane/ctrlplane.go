// Package ctrlplane implements the SilkRoad switch software: the ~1000
// lines of C in the paper's prototype that drain the learning filter, run
// cuckoo insertions into ConnTable at a bounded rate, execute the 3-step
// per-connection-consistent DIP pool update (Figure 9), manage DIP pool
// versions (allocation from a ring buffer, version reuse, retirement), and
// arbitrate the SYN packets the ASIC redirects on suspected digest or
// bloom false positives.
//
// The control plane is a deterministic state machine over virtual time. It
// has no packet entry: the engine (internal/pipes) composes the per-packet
// step — Advance to the packet's instant, the data plane's pipeline, then
// HandleTupleResultInto for the outcome — and drivers advance it between
// packets with Advance(now). No goroutines, no wall clock — every
// experiment replays identically.
package ctrlplane

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cuckoo"
	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/learnfilter"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Config parameterizes the switch software.
type Config struct {
	// InsertRate is sustained ConnTable insertions per second of virtual
	// time (paper §5.2: ~200K/s on the embedded CPU).
	InsertRate float64
	// AgingTimeout expires idle connections; zero disables aging (the
	// driver then ends connections explicitly). Aging runs in steps on a
	// grid of max(AgingTimeout/8, 100ms) from time 0: a step sweeps the
	// records' last-seen times and releases every connection idle for
	// AgingTimeout, so a connection goes at the first step at least
	// AgingTimeout after its last packet. A packet only writes its
	// connection's last-seen time.
	AgingTimeout simtime.Duration
	// DisableVersionReuse turns off §4.2's version reuse (the Figure 15
	// ablation): every update allocates a fresh version number.
	DisableVersionReuse bool
	// OnOverflow, if set, is invoked when a connection cannot be installed
	// because ConnTable is full (§7's "ConnTable as a cache"): the callback
	// receives the connection and the DIP its packets are currently
	// hashed to, so a software tier (switch CPU or SLB) can pin it.
	OnOverflow func(now simtime.Time, tuple netproto.FiveTuple, dip dataplane.DIP)
	// MaxInsertQueue is a hard bound on the CPU insertion queue. Learn
	// events that would grow the queue past the bound are shed — dropped
	// without consuming CPU time; the connection stays unpinned and a later
	// packet re-offers it through the learning filter. Zero = unbounded
	// (the pre-bound behaviour; Metrics.MaxInsertQueue then only observes).
	MaxInsertQueue int
	// MaxInsertRetries makes insertions that hit cuckoo.ErrTableFull
	// re-queue with capped exponential backoff instead of failing
	// terminally: attempt n waits insertRetryBackoff<<n, capped at
	// insertRetryMax. After MaxInsertRetries failed attempts the insertion
	// falls through to the overflow path (OnOverflow, Metrics.Overflows).
	// Zero disables retries.
	MaxInsertRetries int
}

// The full-table retry schedule: 1 ms doubling per attempt, capped at
// 50 ms.
const (
	insertRetryBackoff = simtime.Duration(simtime.Millisecond)
	insertRetryMax     = simtime.Duration(50 * simtime.Millisecond)
)

// DefaultConfig returns the paper's control-plane operating point.
func DefaultConfig() Config {
	return Config{InsertRate: 200_000}
}

// Metrics are the control plane's counters.
type Metrics struct {
	Inserted           uint64
	DuplicateLearns    uint64
	Overflows          uint64 // ConnTable full: connection left unpinned
	DigestFPsResolved  uint64
	BloomFPsResolved   uint64
	RetransmittedSYNs  uint64
	UpdatesRequested   uint64
	UpdatesCompleted   uint64
	UpdatesCoalesced   uint64 // request matched the pool already in force
	VersionAllocs      uint64
	VersionReuses      uint64
	VersionExhaustions uint64
	ConnsEnded         uint64
	AgedOut            uint64
	InsertRetries      uint64           // full-table insertions re-queued with backoff
	InsertSheds        uint64           // learn events dropped at the queue bound
	InsertDelaySum     simtime.Duration // sum over inserts of (install - arrival)
	MaxInsertQueue     int
}

// Add accumulates o into m — the per-pipe to chip-level aggregation used by
// the multi-pipe engine. Sums are added; MaxInsertQueue takes the maximum,
// since each pipe has its own insertion CPU.
func (m *Metrics) Add(o Metrics) {
	m.Inserted += o.Inserted
	m.DuplicateLearns += o.DuplicateLearns
	m.Overflows += o.Overflows
	m.DigestFPsResolved += o.DigestFPsResolved
	m.BloomFPsResolved += o.BloomFPsResolved
	m.RetransmittedSYNs += o.RetransmittedSYNs
	m.UpdatesRequested += o.UpdatesRequested
	m.UpdatesCompleted += o.UpdatesCompleted
	m.UpdatesCoalesced += o.UpdatesCoalesced
	m.VersionAllocs += o.VersionAllocs
	m.VersionReuses += o.VersionReuses
	m.VersionExhaustions += o.VersionExhaustions
	m.ConnsEnded += o.ConnsEnded
	m.AgedOut += o.AgedOut
	m.InsertRetries += o.InsertRetries
	m.InsertSheds += o.InsertSheds
	m.InsertDelaySum += o.InsertDelaySum
	if o.MaxInsertQueue > m.MaxInsertQueue {
		m.MaxInsertQueue = o.MaxInsertQueue
	}
}

// MeanInsertDelay returns the average arrival-to-install latency.
func (m Metrics) MeanInsertDelay() simtime.Duration {
	if m.Inserted == 0 {
		return 0
	}
	return m.InsertDelaySum / simtime.Duration(m.Inserted)
}

type pendingInsert struct {
	ev         learnfilter.Event
	completeAt simtime.Time
	retries    int  // full-table attempts already made (backoff doubles per retry)
	imported   bool // handoff import, not a learned event (telemetry labeling)
}

type updState uint8

const (
	updIdle updState = iota
	updRecording
	updTransition
)

type updateReq struct {
	at   simtime.Time
	pool []dataplane.DIP
}

type vipCtl struct {
	vip dataplane.VIP
	// slot numbers the VIP densely among the control plane's VIPs; a
	// connection's record stores it in place of the VIP's address, port and
	// protocol (records.go).
	slot    uint16
	curVer  uint32
	prevVer uint32 // old version of the in-flight update
	// freeVers is the ring buffer of version numbers available for new
	// pools (§4.2); vers holds the live ones (versions.go).
	freeVers      []uint32
	vers          []poolVersion
	state         updState
	treq, texec   simtime.Time
	pendingNewVer uint32 // version chosen at t_req, swapped in at t_exec
	queued        []updateReq
	// metrics for Figure 15
	versionsAllocated int
	maxActive         int
}

// ControlPlane drives one SilkRoad switch.
type ControlPlane struct {
	sw  *dataplane.Switch
	cfg Config

	// now is the latest instant Advance has run to.
	now simtime.Time

	cpuFreeAt simtime.Time
	queue     insertQueue

	// insertScale (fault injection) multiplies the configured InsertRate:
	// 0 or 1 = nominal speed, 0.25 = a browned-out CPU at quarter rate.
	insertScale float64

	conns recordStore // per-connection records, indexed from the ConnTable entries
	vips  map[dataplane.VIP]*vipCtl
	// bySlot indexes the VIPs by slot (nil = free). freeSlots holds the free
	// slots below len(bySlot) in descending order, so the lowest is last.
	bySlot    []*vipCtl
	freeSlots []uint16

	activeUpdates int
	// agingStep is the aging grid's spacing (0 when aging is disabled) and
	// oldestSeen a bound no live record's last-seen time is below: the
	// oldest the last sweep left, lowered by installs since.
	agingStep  simtime.Duration
	oldestSeen simtime.Time

	// tracer is shared with the data plane (read from it at construction):
	// both planes report into one telemetry sink, labelled with one pipe.
	tracer telemetry.Tracer
	pipe   int

	// exports are the open conn-table export sessions fed by the install
	// and release paths; handoffSeq is the fallback consistency cursor
	// when no flight recorder is attached.
	exports    []*ExportSession
	handoffSeq uint64

	metrics Metrics
}

// New creates a control plane for sw.
func New(sw *dataplane.Switch, cfg Config) *ControlPlane {
	if cfg.InsertRate <= 0 {
		panic("ctrlplane: InsertRate must be positive")
	}
	cp := &ControlPlane{
		sw:     sw,
		cfg:    cfg,
		vips:   make(map[dataplane.VIP]*vipCtl),
		tracer: sw.Tracer(),
		pipe:   sw.PipeIndex(),
	}
	if cfg.AgingTimeout > 0 {
		cp.agingStep = max(cfg.AgingTimeout/8, simtime.Duration(100*simtime.Millisecond))
		cp.conns.aging = true
	}
	sw.ConnTable().SetRecordHasher(cp.recordKeyHash)
	return cp
}

// Metrics returns a copy of the counters.
func (cp *ControlPlane) Metrics() Metrics { return cp.metrics }

// TrackedConns returns the number of connections the switch software holds
// a record for.
func (cp *ControlPlane) TrackedConns() int { return cp.conns.live }

// perInsert returns the CPU time of one ConnTable insertion.
func (cp *ControlPlane) perInsert() simtime.Duration {
	rate := cp.cfg.InsertRate
	if cp.insertScale > 0 {
		rate *= cp.insertScale
	}
	return simtime.Duration(float64(simtime.Second) / rate)
}

// SetInsertRateScale slows the insertion CPU to scale times its configured
// rate (0 < scale < 1 models a brownout; scale >= 1 or 0 restores nominal
// speed). Applies to insertions scheduled from now on; already-queued
// insertions keep their deadlines. Fault-injection hook.
func (cp *ControlPlane) SetInsertRateScale(scale float64) {
	if scale < 0 {
		scale = 0
	}
	cp.insertScale = scale
}

// StallCPU freezes the insertion CPU for d starting at now: every queued
// insertion not yet executed is pushed back by d, and the CPU accepts no
// new work until the stall ends. The uniform shift keeps the queue sorted
// by completion time. Fault-injection hook.
func (cp *ControlPlane) StallCPU(now simtime.Time, d simtime.Duration) {
	if d <= 0 {
		return
	}
	for i := 0; i < cp.queue.len(); i++ {
		if pi := cp.queue.at(i); pi.completeAt.After(now) {
			pi.completeAt = pi.completeAt.Add(d)
		}
	}
	if cp.cpuFreeAt.Before(now) {
		cp.cpuFreeAt = now
	}
	cp.cpuFreeAt = cp.cpuFreeAt.Add(d)
}

// QueueDepth returns the current CPU insertion queue length.
func (cp *ControlPlane) QueueDepth() int { return cp.queue.len() }

// ActiveUpdates returns the number of VIPs with a 3-step pool update in
// flight.
func (cp *ControlPlane) ActiveUpdates() int { return cp.activeUpdates }

// QueuedUpdates returns the number of update requests waiting behind
// in-flight updates across every VIP.
func (cp *ControlPlane) QueuedUpdates() int {
	n := 0
	for _, vc := range cp.vips {
		n += len(vc.queued)
	}
	return n
}

// PendingWork sums everything the switch still has to absorb before it is
// safe to move a rolling update to the next switch: undrained learn
// events, queued CPU insertions, and in-flight or queued pool updates.
// Zero means the switch is drained in the §4.2 pending-insert sense.
func (cp *ControlPlane) PendingWork() int {
	n := cp.queue.len() + cp.activeUpdates + cp.QueuedUpdates()
	if lf := cp.sw.LearnFilter(); lf != nil {
		n += lf.Len()
	}
	return n
}

// AddVIP announces a VIP with its initial DIP pool. meterBytesPerSec > 0
// attaches a hardware meter (0 disables metering for this VIP).
func (cp *ControlPlane) AddVIP(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP, meterBytesPerSec float64) error {
	if len(pool) == 0 {
		return errors.New("ctrlplane: empty initial pool")
	}
	if _, dup := cp.vips[vip]; dup {
		return dataplane.ErrVIPExists
	}
	if len(cp.freeSlots) == 0 && len(cp.bySlot) == maxVIPs {
		return ErrVIPSlots
	}
	if err := cp.sw.InstallVIP(vip, 0, pool, meterBytesPerSec); err != nil {
		return err
	}
	maxVer := uint32(1) << uint(cp.sw.Config().VersionBits)
	free := make([]uint32, 0, maxVer-1)
	for v := uint32(1); v < maxVer; v++ {
		free = append(free, v)
	}
	vc := &vipCtl{
		vip:               vip,
		freeVers:          free,
		vers:              []poolVersion{{ver: 0, row: clone(pool)}},
		versionsAllocated: 1,
	}
	if n := len(cp.freeSlots); n > 0 {
		vc.slot, cp.freeSlots = cp.freeSlots[n-1], cp.freeSlots[:n-1]
		cp.bySlot[vc.slot] = vc
	} else {
		vc.slot = uint16(len(cp.bySlot))
		cp.bySlot = append(cp.bySlot, vc)
	}
	cp.vips[vip] = vc
	return nil
}

// maxVIPs is how many VIPs a control plane holds at once: a record names its
// VIP in 16 bits.
const maxVIPs = 1 << 16

// ErrVIPSlots is returned by AddVIP when maxVIPs VIPs are announced already.
var ErrVIPSlots = errors.New("ctrlplane: all 65536 VIP slots in use")

// RemoveVIP withdraws a VIP entirely, dropping its connections. Its slot is
// freed last, once no record names it.
func (cp *ControlPlane) RemoveVIP(now simtime.Time, vip dataplane.VIP) error {
	vc, ok := cp.vips[vip]
	if !ok {
		return dataplane.ErrUnknownVIP
	}
	// Requests queued behind the in-flight update die with the VIP: finishing
	// must not start the next one on a VIP that is about to disappear.
	vc.queued = nil
	if vc.state != updIdle {
		cp.finishUpdate(now, vc)
	}
	cp.sw.ConnTable().Walk(func(e cuckoo.Entry) bool {
		if e.Record != 0 && cp.conns.slot(e.Record) == vc.slot {
			tuple := cp.conns.tuple(e.Record, vc.vip)
			cp.sw.DeleteConnAt(0, e, tuple) // unstamped, like DeleteConn
			cp.noteConn(vc, tuple, e.Value, handoff.OpDelete)
			cp.conns.release(e.Record)
		}
		return true
	})
	delete(cp.vips, vip)
	cp.bySlot[vc.slot] = nil
	i, _ := slices.BinarySearchFunc(cp.freeSlots, vc.slot, func(a, b uint16) int { return cmp.Compare(b, a) })
	cp.freeSlots = slices.Insert(cp.freeSlots, i, vc.slot)
	return cp.sw.RemoveVIP(vip)
}

// CurrentPool returns the pool new connections of vip map to.
func (cp *ControlPlane) CurrentPool(vip dataplane.VIP) ([]dataplane.DIP, error) {
	vc, ok := cp.vips[vip]
	if !ok {
		return nil, dataplane.ErrUnknownVIP
	}
	return clone(vc.row(vc.curVer)), nil
}

// TargetPool returns the pool vip's newest requested state maps to — the
// tail of the update queue, the in-flight update's target, or the current
// pool when the VIP is idle. The multi-pipe engine snapshots it before a
// fanned-out update so a mid-fanout failure can be rolled back to exactly
// the state each pipe was heading for.
func (cp *ControlPlane) TargetPool(vip dataplane.VIP) ([]dataplane.DIP, error) {
	vc, ok := cp.vips[vip]
	if !ok {
		return nil, dataplane.ErrUnknownVIP
	}
	return clone(vc.targetPool()), nil
}

// VersionsAllocated returns how many distinct version numbers vip has
// consumed so far (Figure 15's quantity when reuse is disabled).
func (cp *ControlPlane) VersionsAllocated(vip dataplane.VIP) int {
	vc, ok := cp.vips[vip]
	if !ok {
		return 0
	}
	return vc.versionsAllocated
}

// MaxActiveVersions returns the largest number of pool versions vip has
// held concurrently — the quantity that sizes the version field (a 6-bit
// ring needs this to stay at or below 64).
func (cp *ControlPlane) MaxActiveVersions(vip dataplane.VIP) int {
	vc, ok := cp.vips[vip]
	if !ok {
		return 0
	}
	return vc.maxActive
}

// targetPool returns the pool an update request should be diffed against:
// the newest requested state — the tail of the queue, the in-flight
// update's target, or the current pool.
func (vc *vipCtl) targetPool() []dataplane.DIP {
	if n := len(vc.queued); n > 0 {
		return vc.queued[n-1].pool
	}
	if vc.state == updRecording {
		return vc.row(vc.pendingNewVer)
	}
	return vc.row(vc.curVer)
}

// AddDIP requests adding one DIP to vip's pool.
func (cp *ControlPlane) AddDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error {
	vc, ok := cp.vips[vip]
	if !ok {
		return dataplane.ErrUnknownVIP
	}
	pool := clone(vc.targetPool())
	pool = append(pool, dip)
	return cp.RequestUpdate(now, vip, pool)
}

// RemoveDIP requests removing one DIP from vip's pool. The DIP is treated
// as leaving service (its connections are dying anyway), which is what
// permits later version reuse.
func (cp *ControlPlane) RemoveDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error {
	vc, ok := cp.vips[vip]
	if !ok {
		return dataplane.ErrUnknownVIP
	}
	pool := clone(vc.targetPool())
	out := pool[:0]
	found := false
	for _, d := range pool {
		if !found && d == dip {
			found = true
			continue
		}
		out = append(out, d)
	}
	if !found {
		return fmt.Errorf("ctrlplane: DIP %v not in pool of %v", dip, vip)
	}
	return cp.RequestUpdate(now, vip, out)
}

// RequestUpdate queues a DIP pool update for vip to the given target pool.
// Updates of one VIP serialize; the update starts as soon as the VIP is
// idle and completes with PCC unless the data plane has no TransitTable.
func (cp *ControlPlane) RequestUpdate(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	vc, ok := cp.vips[vip]
	if !ok {
		return dataplane.ErrUnknownVIP
	}
	if len(pool) == 0 {
		return errors.New("ctrlplane: update to empty pool")
	}
	cp.metrics.UpdatesRequested++
	if cp.tracer != nil {
		// The new version is not chosen yet; report the current version on
		// both sides and the requested target as the after-pool.
		cp.tracer.Trace(telemetry.Event{
			Kind: telemetry.KindUpdateStep, Now: now, Pipe: cp.pipe, VIP: cp.sw.VIPTelemetry(vip),
			UpdateStep:  telemetry.StepRequested,
			Key:         vip.TelemetryKey(),
			PrevVersion: vc.curVer, Version: vc.curVer,
			Before: clone(vc.row(vc.curVer)), After: clone(pool),
		})
	}
	if sameMembers(pool, vc.targetPool()) {
		cp.metrics.UpdatesCoalesced++
		return nil
	}
	vc.queued = append(vc.queued, updateReq{at: now, pool: clone(pool)})
	cp.maybeStartUpdate(now, vc)
	return nil
}

func clone(p []dataplane.DIP) []dataplane.DIP { return append([]dataplane.DIP(nil), p...) }
