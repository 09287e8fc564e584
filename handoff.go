package silkroad

// Connection-state handoff facade: point-in-time conn-table snapshots
// (Export/Import on a Switch) and live warm migration between fleet
// members (Cluster.Migrate, the drain and rejoin around an upgrade, and
// the rolling upgrade that strings them together).
// The heavy lifting lives in internal/handoff (wire types, transfer pump)
// and internal/ctrlplane (export sessions, rate-bounded imports); this file
// routes them across pipes and members under the facade's locking
// discipline.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/pipes"
	"repro/internal/simtime"
)

// Re-exported handoff types.
type (
	// ConnSnapshot is a point-in-time export of a switch's connection
	// table in portable form — what Export returns, Import consumes, and
	// silkroad-inspect's snapshot subcommand pretty-prints and diffs.
	ConnSnapshot = handoff.Snapshot
	// ConnEntry is one connection's transferable state.
	ConnEntry = handoff.Entry
	// HandoffStats counts a migration's work.
	HandoffStats = handoff.Stats
)

// ErrMigrateStalled aborts an Import whose receiver never drains its
// insertion queue.
var ErrMigrateStalled = errors.New("silkroad: migration stalled")

// Export freezes a snapshot of every connection the switch has installed,
// across all pipes, without pausing the packet path. The snapshot is
// self-contained: each entry carries its pinned pool row and resolved
// DIP, so it can be imported on any switch sharing the fleet's hash seeds,
// diffed against another snapshot, or audited offline.
func (s *Switch) Export(now Time) *ConnSnapshot {
	snap := &ConnSnapshot{TakenAt: now, Pipes: s.Pipes()}
	for i := 0; i < s.Pipes(); i++ {
		s.eng.Inspect(i, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			ses := cp.BeginExport(now)
			for ses.Pending() > 0 {
				snap.Entries = append(snap.Entries, ses.NextChunk(4096)...)
			}
			if c := ses.Cursor(); c > snap.Cursor {
				snap.Cursor = c
			}
			ses.Close()
		})
	}
	return snap
}

// Import replays a snapshot into the switch: each entry is routed to its
// owning pipe, mapped onto a local pool version with the same row slot for
// slot, and pinned through the bounded CPU insertion queue — the same rate
// limit learned connections pay, so an import cannot starve live
// learning. Backpressure is absorbed by advancing the switch's runtime
// until the queue drains. Entries the switch cannot host (unknown VIP) are
// skipped and counted in the second return.
func (s *Switch) Import(now Time, snap *ConnSnapshot) (imported, skipped int, err error) {
	r := newRouteImporter([]*Switch{s}, func(FiveTuple) int { return 0 })
	t := now
	for _, e := range snap.Entries {
		if e.Op == handoff.OpDelete {
			continue // point-in-time snapshots carry no deletes
		}
		for attempt := 0; ; attempt++ {
			ierr := r.Import(t, e)
			if ierr == nil {
				imported++
				break
			}
			if !errors.Is(ierr, handoff.ErrBackpressure) {
				skipped++
				break
			}
			if attempt > 10000 {
				return imported, skipped, fmt.Errorf("%w: import queue never drained", ErrMigrateStalled)
			}
			t = t.Add(simtime.Millisecond)
			s.AdvanceTo(t)
		}
	}
	s.AdvanceTo(t.Add(simtime.Millisecond))
	return imported, skipped, nil
}

// transfer is one in-flight move of connection state between members: a
// handoff.Transfer per donor pipe, each feeding its own routeImporter,
// pumped on the fleet's timeline every transferPace. It completes at the
// first instant it has converged and every member it involves is
// quiescent (no pending learns, inserts or updates, so no straggler can
// install after cutover). A drain or rejoin (release) then points the
// moved buckets at their receivers; Migrate only copies.
type transfer struct {
	release   bool  // cut the moved buckets over and release the donors' copies
	dest      []int // bucket -> receiving member, -1 for a bucket not moving
	members   []int // donors and receivers, all quiet at cutover
	parts     []*pipeTransfer
	pumpAt    Time   // the next paced pump
	moved     uint64 // records pumped so far: the stall check's progress
	converged bool   // the last pump found every part converged
	done      bool   // cut over (or copied): set once, at completion
}

// pipeTransfer pumps one donor pipe's export session.
type pipeTransfer struct {
	eng  *pipes.Engine // the donor's
	pipe int
	tr   *handoff.Transfer
	im   *routeImporter
}

// routeImporter routes each entry to a member (-1: skip it), then to that
// member's PipeOf pipe. Each receiving pipe gets its own
// ctrlplane.Importer, which maps and pins into that pipe's control plane.
type routeImporter struct {
	sws  []*Switch
	dest func(FiveTuple) int
	ims  []*ctrlplane.Importer // by member*pipes + pipe, built on first use
}

func newRouteImporter(sws []*Switch, dest func(FiveTuple) int) *routeImporter {
	return &routeImporter{sws: sws, dest: dest, ims: make([]*ctrlplane.Importer, len(sws)*sws[0].Pipes())}
}

func (r *routeImporter) Import(now Time, e handoff.Entry) (err error) {
	r.at(e.Tuple, func(im *ctrlplane.Importer) { err = im.Import(now, e) })
	return err
}

func (r *routeImporter) Delete(now Time, e handoff.Entry) {
	r.at(e.Tuple, func(im *ctrlplane.Importer) { im.Delete(now, e) })
}

// at runs fn on the importer of t's receiving pipe, if t has a receiver.
func (r *routeImporter) at(t FiveTuple, fn func(*ctrlplane.Importer)) {
	if m := r.dest(t); m >= 0 {
		r.on(m*r.sws[m].Pipes()+r.sws[m].eng.PipeOf(t), fn)
	}
}

// on runs fn on importer k under its pipe's lock.
func (r *routeImporter) on(k int, fn func(*ctrlplane.Importer)) {
	pipes := len(r.ims) / len(r.sws)
	r.sws[k/pipes].eng.Inspect(k%pipes, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
		if r.ims[k] == nil {
			r.ims[k] = ctrlplane.NewImporter(cp)
		}
		fn(r.ims[k])
	})
}

// newTransfer opens an export session on every pipe of each donor, pumped
// in chunks of transferBatch entries into a routeImporter onto dest, and
// makes it the cluster's transfer, first pumped at now: a cutover (release,
// a drain or rejoin) or a copy (Migrate). Its events name the receiver when
// there is one, else -1.
func (c *Cluster) newTransfer(now Time, release bool, donors, receivers, dest []int) {
	x := &transfer{release: release, dest: dest, members: slices.Concat(donors, receivers), pumpAt: now}
	label := -1
	if len(receivers) == 1 {
		label = receivers[0]
	}
	route := func(t FiveTuple) int { return dest[c.bucketOf(t)] }
	for _, d := range donors {
		eng := c.sws[d].eng
		for p := 0; p < eng.NumPipes(); p++ {
			pt := &pipeTransfer{eng: eng, pipe: p, im: newRouteImporter(c.sws, route)}
			eng.Inspect(p, func(dp *dataplane.Switch, cp *ctrlplane.ControlPlane) {
				pt.tr = handoff.NewTransfer(cp.BeginExport(now), pt.im, handoff.Config{
					ChunkSize: transferBatch, Tracer: dp.Tracer(), Donor: d, Receiver: label,
				})
			})
			x.parts = append(x.parts, pt)
		}
	}
	c.xfer = x
}

// nextPump returns when the active transfer is next due: at the fleet's
// current instant once it has converged and its members are quiescent
// (level-triggered), else at its next paced pump.
func (c *Cluster) nextPump() (Time, bool) {
	x := c.xfer
	switch {
	case x == nil:
		return 0, false
	case x.converged && c.quiet(x.members):
		return c.now, true
	}
	return x.pumpAt, true
}

// pump runs the active transfer's pumps due at or before now, each at its
// own deadline: up to transferBatch records out of every donor pipe,
// pausing on receiver backpressure, then the cutover once converged and
// quiescent.
func (c *Cluster) pump(now Time) {
	for x := c.xfer; x != nil; x = c.xfer {
		due, _ := c.nextPump()
		if now.Before(due) {
			return
		}
		x.converged = true
		for _, pt := range x.parts {
			pt.eng.Inspect(pt.pipe, func(*dataplane.Switch, *ctrlplane.ControlPlane) {
				moved, done := pt.tr.Step(due, transferBatch)
				x.moved += uint64(moved)
				x.converged = x.converged && done
			})
		}
		x.pumpAt = due.Add(transferPace)
		if x.converged && c.quiet(x.members) {
			if x.release {
				c.stats.Migrated += uint64(c.flip(x.dest))
			}
			c.stats.LastHandoff = x.finish(due)
			x.done, c.xfer = true, nil
		}
	}
}

// quiet reports whether none of members has pending work.
func (c *Cluster) quiet(members []int) bool {
	for _, m := range members {
		if c.sws[m].PendingWork() > 0 {
			return false
		}
	}
	return true
}

// finish closes every part and returns their summed stats. At a cutover
// (release), each donor pipe first ends its copies of the connections it
// handed over: state ownership moves with the traffic.
func (x *transfer) finish(now Time) HandoffStats {
	var agg HandoffStats
	for _, pt := range x.parts {
		pt.eng.Inspect(pt.pipe, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			for _, im := range pt.im.ims {
				if im != nil && x.release {
					for _, t := range im.Imported() {
						cp.EndImported(now, t)
					}
				}
			}
			pt.tr.Finish(now)
		})
		st := pt.tr.Stats()
		agg.Exported += st.Exported
		agg.Imported += st.Imported
		agg.Deltas += st.Deltas
		agg.Chunks += st.Chunks
		agg.Backoffs += st.Backoffs
	}
	return agg
}

// cancel abandons the transfer: every session closes and the receivers
// unwind whatever they imported. The spray is untouched.
func (x *transfer) cancel(now Time) {
	for _, pt := range x.parts {
		pt.eng.Inspect(pt.pipe, func(*dataplane.Switch, *ctrlplane.ControlPlane) { pt.tr.Cancel(now) })
		for k, im := range pt.im.ims {
			if im != nil {
				pt.im.on(k, func(im *ctrlplane.Importer) { im.Unwind(now) })
			}
		}
	}
}

// Migrate starts warm-copying in-service member from's entire connection
// table into in-service member to while from keeps forwarding: per-pipe
// export sessions stream the snapshot, then the delta feed replays
// whatever landed mid-flight. AdvanceTo pumps it on the fleet's pace until
// the receiver has converged to the donor's exact table, and leaves its
// stats in Stats().LastHandoff. The donor's state is left intact — Migrate
// pre-warms a standby and moves no traffic; a drain also moves the spray.
func (c *Cluster) Migrate(now Time, from, to int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(now)
	if c.inService(from) != nil || c.inService(to) != nil || from == to {
		return fmt.Errorf("silkroad: bad migration %d -> %d", from, to)
	}
	if c.xfer != nil {
		return ErrTransferActive
	}
	dest := make([]int, len(c.spray))
	for b := range dest {
		dest[b] = to
	}
	c.newTransfer(now, false, []int{from}, []int{to}, dest)
	return nil
}

// DrainSwitch begins warm-migrating member i's shard to the other
// in-service members: an export session opens on every donor pipe and the
// post-drain spray is planned (the redistribution FailSwitch would apply)
// without touching the live spray, so the donor keeps forwarding at full
// rate while AdvanceTo pumps its state out. Once the transfer has
// converged and the donor and every receiver are quiescent, the planned
// buckets flip to their receivers and the drain completes. Public: the
// README's warm-drain API.
func (c *Cluster) DrainSwitch(now Time, i int) error {
	return locked(&c.mu, func() error { return c.drainSwitch(now, i) })
}

func (c *Cluster) drainSwitch(now Time, i int) error {
	c.stamp(now)
	if c.xfer != nil {
		return ErrTransferActive
	}
	if err := c.inService(i); err != nil {
		return err
	}
	dest, survivors := c.redistribute(i)
	if dest == nil {
		return ErrNoPeer
	}
	c.newTransfer(now, true, []int{i}, survivors, dest)
	return nil
}

// RejoinSwitch begins migrating member i's original spray buckets back
// from the members now holding them, after a restore and re-announce. It
// is gated on warmth (ErrNotWarm until the member is in service, announces
// every VIP a healthy peer announces and has no pending work; callers
// retry as it converges). Traffic moves only at the cutover, where the
// reclaimed buckets flip back and each donor releases its copies of the
// connections it handed over. Public: the README's rejoin API.
func (c *Cluster) RejoinSwitch(now Time, i int) error {
	return locked(&c.mu, func() error { return c.rejoinSwitch(now, i) })
}

func (c *Cluster) rejoinSwitch(now Time, i int) error {
	c.stamp(now)
	if c.xfer != nil {
		return ErrTransferActive
	}
	if err := c.member(i); err != nil {
		return err
	}
	if !c.warm(i) {
		return ErrNotWarm
	}
	dest := make([]int, len(c.spray))
	var donors []int
	for b, m := range c.spray {
		dest[b] = -1
		if c.origin[b] == i && m != i {
			dest[b] = i
			if !slices.Contains(donors, m) {
				donors = append(donors, m)
			}
		}
	}
	slices.Sort(donors)
	c.newTransfer(now, true, donors, []int{i}, dest)
	return nil
}

// warm reports whether member i can serve: in service, every VIP the
// first healthy peer announces installed, and no pending work.
func (c *Cluster) warm(i int) bool {
	if c.down[i] {
		return false
	}
	have := intentTarget{c: c, m: i}.ObservedVIPs()
	if peer, ok := c.peer(i); ok {
		for _, vip := range peer.ObservedVIPs() {
			if !slices.Contains(have, vip) {
				return false
			}
		}
	}
	return c.sws[i].PendingWork() == 0
}

// peer returns the first in-service member other than i.
func (c *Cluster) peer(i int) (intentTarget, bool) {
	for j := range c.sws {
		if j != i && !c.down[j] {
			return intentTarget{c: c, m: j}, true
		}
	}
	return intentTarget{}, false
}

// CancelTransfer abandons the active drain, rejoin or Migrate: every
// session closes and the receivers unwind whatever they imported; the
// donors and the spray are untouched. Public: a caller may abandon what it
// started.
func (c *Cluster) CancelTransfer(now Time) error {
	return locked(&c.mu, func() error { return c.cancelTransfer(now) })
}

func (c *Cluster) cancelTransfer(now Time) error {
	c.stamp(now)
	if c.xfer == nil {
		return ErrNoTransfer
	}
	c.xfer.cancel(now)
	c.xfer = nil
	return nil
}

// StartUpgrade attaches a rolling upgrade of the members in order (nil:
// every member, ascending): drain, take down, restore, re-announce the
// pools the first in-service peer serves, rejoin, one member at a time,
// the first drain beginning at now. AdvanceTo runs it; read the returned
// Upgrader between AdvanceTo calls. It refuses while an earlier upgrade is
// not done.
func (c *Cluster) StartUpgrade(now Time, order []int, cfg UpgradeConfig) (*Upgrader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(now)
	if c.up != nil && !c.up.Done() {
		return nil, ErrUpgradeActive
	}
	c.up = newUpgrader(c, now, order, cfg)
	c.sched.AddSource(fleetSource{next: c.up.nextEventTime, advance: c.up.advance})
	return c.up, nil
}
