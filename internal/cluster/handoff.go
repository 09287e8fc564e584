package cluster

import (
	"errors"
	"sort"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// Handoff orchestration errors.
var (
	// ErrTransferActive rejects overlapping drains/rejoins: the cluster
	// runs one connection-state transfer at a time.
	ErrTransferActive = errors.New("cluster: a drain or rejoin is already active")
	// ErrNoTransfer is returned by step/cancel calls with nothing active.
	ErrNoTransfer = errors.New("cluster: no active drain or rejoin")
	// ErrNotDrained rejects UpgradeSwitch while spray buckets still point
	// at the switch — take-down before migration would drop its flows.
	ErrNotDrained = errors.New("cluster: switch still owns spray buckets")
	// ErrNotWarm rejects RejoinSwitch until the member has every VIP a
	// healthy peer announces and no pending control-plane work — the gate
	// that keeps a rebooted member from taking traffic with a cold table.
	// It aliases handoff.ErrNotWarm so the upgrade orchestrator can match
	// it without importing this package.
	ErrNotWarm = handoff.ErrNotWarm
	// ErrNoPeer rejects a drain with no alive peer to migrate to.
	ErrNoPeer = errors.New("cluster: no alive peer to migrate to")
)

// bucketOf returns the resilient-ECMP bucket a tuple hashes to (the
// stable routing key; sprayIndex is spray[bucketOf]).
func (c *Cluster) bucketOf(t netproto.FiveTuple) int {
	return int(netproto.TupleHash(c.cfg.SpraySeed, &t) % uint64(len(c.spray)))
}

// SetBackstop registers the software-load-balancer backstop (§7's
// "ConnTable as a cache" taken fleet-wide; internal/hybrid wires an
// slb.Balancer here). During a drain, an entry whose peer import fails
// terminally — version space exhausted, VIP withdrawn — is pinned to the
// backstop with its donor-resolved DIP instead of being dropped, so the
// flow survives even when the switching tier cannot hold it. end is
// called on delta deletes so the backstop releases its pin.
func (c *Cluster) SetBackstop(pin func(now simtime.Time, t netproto.FiveTuple, dip dataplane.DIP) bool,
	end func(now simtime.Time, t netproto.FiveTuple)) {
	c.backstop, c.backstopEnd = pin, end
}

// drainState is one in-flight DrainSwitch.
type drainState struct {
	donor   int
	tr      *handoff.Transfer
	planned map[int]int                 // donor bucket -> destination member
	ims     map[int]*ctrlplane.Importer // per destination
	dests   []int                       // sorted destination members
}

// routeImporter fans a donor's export across the planned destinations:
// each entry lands on the member its bucket will spray to after cutover,
// so cutover changes nothing about where the connection's state lives.
type routeImporter struct {
	c *Cluster
	d *drainState
}

func (r routeImporter) Import(now simtime.Time, e handoff.Entry) error {
	dest, ok := r.d.planned[r.c.bucketOf(e.Tuple)]
	if !ok {
		return nil // not a donor bucket (stale entry); nothing to move
	}
	err := r.d.ims[dest].Import(now, e)
	if err != nil && !errors.Is(err, handoff.ErrBackpressure) &&
		r.c.backstop != nil && e.DIP.IsValid() {
		if r.c.backstop(now, e.Tuple, e.DIP) {
			r.c.BackstopPins++
			return nil
		}
	}
	return err
}

func (r routeImporter) Delete(now simtime.Time, e handoff.Entry) {
	if dest, ok := r.d.planned[r.c.bucketOf(e.Tuple)]; ok {
		r.d.ims[dest].Delete(now, e)
	}
	if r.c.backstopEnd != nil {
		r.c.backstopEnd(now, e.Tuple)
	}
}

// DrainSwitch begins warm-migrating switch i's shard to the surviving
// peers: a conn-table export session opens on the donor and the planned
// post-drain spray is computed (the same redistribution FailSwitch would
// apply) WITHOUT touching the live spray — the donor keeps forwarding at
// full rate while DrainStep pumps its state out. Cutover happens inside
// DrainStep at a quiescent instant, so the receivers hold the donor's
// exact table the moment they start seeing its traffic.
func (c *Cluster) DrainSwitch(now simtime.Time, i int) error {
	if c.drain != nil || c.rejoin != nil {
		return ErrTransferActive
	}
	if i < 0 || i >= len(c.members) {
		return errors.New("cluster: no such switch")
	}
	m := c.members[i]
	if !m.alive {
		return errors.New("cluster: cannot drain a failed switch")
	}
	var survivors []int
	for j, o := range c.members {
		if j != i && o.alive {
			survivors = append(survivors, j)
		}
	}
	if len(survivors) == 0 {
		return ErrNoPeer
	}
	planned := make(map[int]int)
	k := 0
	for b := range c.spray {
		if c.spray[b] == i {
			planned[b] = survivors[k%len(survivors)]
			k++
		}
	}
	ims := make(map[int]*ctrlplane.Importer, len(survivors))
	for _, s := range survivors {
		ims[s] = ctrlplane.NewImporter(c.members[s].cp)
	}
	d := &drainState{donor: i, planned: planned, ims: ims, dests: survivors}
	d.tr = handoff.NewTransfer(m.cp.BeginExport(now), routeImporter{c, d}, handoff.Config{
		ChunkSize: 128, Tracer: m.sw.Tracer(), Donor: i, Receiver: -1,
	})
	c.drain = d
	return nil
}

// DrainStep pumps the active drain: up to budget records move (budget
// <= 0 means unbounded), pausing on receiver backpressure. When the
// transfer has converged AND the donor and every receiver are quiescent
// (no pending learns, inserts or updates — so no straggler could install
// after cutover), the spray flips to the planned destinations atomically
// and the drain completes. Returns the records moved this call — the
// progress signal stall detection watches.
func (c *Cluster) DrainStep(now simtime.Time, budget int) (moved int, done bool, err error) {
	d := c.drain
	if d == nil {
		return 0, false, ErrNoTransfer
	}
	moved, tdone := d.tr.Step(now, budget)
	if !tdone || c.members[d.donor].cp.PendingWork() > 0 {
		return moved, false, nil
	}
	for _, dest := range d.dests {
		if c.members[dest].cp.PendingWork() > 0 {
			return moved, false, nil
		}
	}
	// Quiescent instant: receivers hold the donor's exact shard. Cut over.
	for b, dest := range d.planned {
		c.spray[b] = dest
	}
	c.Migrated += uint64(len(d.planned))
	d.tr.Finish(now)
	c.LastHandoff = d.tr.Stats()
	c.drain = nil
	return moved, true, nil
}

// CancelDrain abandons the active drain (stall rollback): the receivers
// unwind every imported entry, the donor keeps its table and its
// traffic, and the spray is untouched.
func (c *Cluster) CancelDrain(now simtime.Time) error {
	d := c.drain
	if d == nil {
		return ErrNoTransfer
	}
	d.tr.Cancel(now)
	for _, dest := range d.dests {
		d.ims[dest].Unwind(now)
	}
	c.drain = nil
	return nil
}

// UpgradeSwitch takes a DRAINED switch out of service: unlike
// FailSwitch it refuses while any spray bucket still points at i, so an
// upgrade can never drop flows that were not migrated first.
func (c *Cluster) UpgradeSwitch(i int) error {
	if i < 0 || i >= len(c.members) {
		return errors.New("cluster: no such switch")
	}
	m := c.members[i]
	if !m.alive {
		return errors.New("cluster: switch already out of service")
	}
	for b := range c.spray {
		if c.spray[b] == i {
			return ErrNotDrained
		}
	}
	m.alive = false
	return nil
}

// rejoinState is one in-flight RejoinSwitch: reverse migration of the
// member's original buckets from every survivor currently holding them.
type rejoinState struct {
	member  int
	donors  []int
	trs     map[int]*handoff.Transfer
	ims     map[int]*ctrlplane.Importer
	buckets map[int]bool // buckets to reclaim at cutover
}

// filterImporter admits only entries whose bucket is being reclaimed —
// donors export their whole shard; the rejoin takes just the slice that
// originally belonged to the returning member.
type filterImporter struct {
	c       *Cluster
	buckets map[int]bool
	inner   *ctrlplane.Importer
}

func (f filterImporter) Import(now simtime.Time, e handoff.Entry) error {
	if !f.buckets[f.c.bucketOf(e.Tuple)] {
		return nil
	}
	return f.inner.Import(now, e)
}

func (f filterImporter) Delete(now simtime.Time, e handoff.Entry) {
	if f.buckets[f.c.bucketOf(e.Tuple)] {
		f.inner.Delete(now, e)
	}
}

// RejoinSwitch begins migrating member i's original spray buckets back
// after a restore + re-announce. It is gated on warmth: the member must
// be alive, announce every VIP a healthy peer announces, and have no
// pending control-plane work — the drain-gated re-entry path that keeps
// a cold member from taking traffic (ErrNotWarm until then; callers
// retry as the reconciler converges the member). Traffic moves only at
// RejoinStep's quiescent cutover, after the state has moved.
func (c *Cluster) RejoinSwitch(now simtime.Time, i int) error {
	if c.drain != nil || c.rejoin != nil {
		return ErrTransferActive
	}
	if i < 0 || i >= len(c.members) {
		return errors.New("cluster: no such switch")
	}
	if err := c.warmCheck(i); err != nil {
		return err
	}
	buckets := make(map[int]bool)
	donorSet := make(map[int]bool)
	for b := range c.spray {
		if c.origin[b] == i && c.spray[b] != i {
			buckets[b] = true
			donorSet[c.spray[b]] = true
		}
	}
	rj := &rejoinState{
		member: i, buckets: buckets,
		trs: make(map[int]*handoff.Transfer),
		ims: make(map[int]*ctrlplane.Importer),
	}
	for d := range donorSet {
		rj.donors = append(rj.donors, d)
	}
	sort.Ints(rj.donors)
	for _, d := range rj.donors {
		im := ctrlplane.NewImporter(c.members[i].cp)
		rj.ims[d] = im
		rj.trs[d] = handoff.NewTransfer(c.members[d].cp.BeginExport(now),
			filterImporter{c, buckets, im}, handoff.Config{
				ChunkSize: 128, Tracer: c.members[d].sw.Tracer(), Donor: d, Receiver: i,
			})
	}
	c.rejoin = rj
	return nil
}

// warmCheck verifies member i can serve: every VIP a healthy peer
// announces is installed and no control-plane work is pending.
func (c *Cluster) warmCheck(i int) error {
	m := c.members[i]
	if !m.alive {
		return ErrNotWarm
	}
	for j, o := range c.members {
		if j == i || !o.alive {
			continue
		}
		for _, vip := range o.sw.VIPs() {
			if !m.sw.HasVIP(vip) {
				return ErrNotWarm
			}
		}
		break
	}
	if m.cp.PendingWork() > 0 {
		return ErrNotWarm
	}
	return nil
}

// RejoinStep pumps the active rejoin across every donor. When all
// transfers have converged and the donors and the member are quiescent,
// the reclaimed buckets flip back and each donor releases its copies of
// the migrated connections (state ownership moves with the traffic).
func (c *Cluster) RejoinStep(now simtime.Time, budget int) (moved int, done bool, err error) {
	rj := c.rejoin
	if rj == nil {
		return 0, false, ErrNoTransfer
	}
	allDone := true
	for _, d := range rj.donors {
		mv, tdone := rj.trs[d].Step(now, budget)
		moved += mv
		if !tdone || c.members[d].cp.PendingWork() > 0 {
			allDone = false
		}
	}
	if !allDone || c.members[rj.member].cp.PendingWork() > 0 {
		return moved, false, nil
	}
	for b := range rj.buckets {
		c.spray[b] = rj.member
	}
	c.Migrated += uint64(len(rj.buckets))
	for _, d := range rj.donors {
		for _, tup := range rj.ims[d].Imported() {
			c.members[d].cp.EndImported(now, tup)
		}
		rj.trs[d].Finish(now)
		c.LastHandoff = rj.trs[d].Stats()
	}
	c.rejoin = nil
	return moved, true, nil
}

// CancelRejoin abandons the active rejoin: the member unwinds every
// imported entry and the donors keep serving their buckets.
func (c *Cluster) CancelRejoin(now simtime.Time) error {
	rj := c.rejoin
	if rj == nil {
		return ErrNoTransfer
	}
	for _, d := range rj.donors {
		rj.trs[d].Cancel(now)
		rj.ims[d].Unwind(now)
	}
	c.rejoin = nil
	return nil
}

// ShadowDIP resolves a connection's pinned backend through the
// exact-tuple shadow of whichever switch its tuple currently sprays to —
// the cluster-wide PCC ground truth. Version numbers are switch-local,
// so cross-member PCC is checked by DIP: shared hash seeds guarantee the
// same pool content selects the same backend on any member.
func (c *Cluster) ShadowDIP(vip dataplane.VIP, t netproto.FiveTuple) (member int, dip dataplane.DIP, ok bool) {
	i := c.sprayIndex(t)
	m := c.members[i]
	if !m.alive {
		return i, dataplane.DIP{}, false
	}
	v, found := m.sw.LookupConn(t)
	if !found {
		return i, dataplane.DIP{}, false
	}
	d, err := m.sw.SelectDIP(vip, v, t)
	if err != nil || !d.IsValid() {
		return i, dataplane.DIP{}, false
	}
	return i, d, true
}
