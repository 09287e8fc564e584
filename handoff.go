package silkroad

// Connection-state handoff facade: point-in-time conn-table snapshots
// (Export/Import on a Switch) and live warm migration between fleet
// members (Cluster.Migrate, and the drain and rejoin around an upgrade).
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

// ErrMigrateStalled aborts a Migrate whose transfer stops making
// progress (receiver wedged, donor mutating faster than the pump).
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
// handoff.Transfer per donor pipe, each feeding its own routeImporter. A
// drain or rejoin cuts over at a quiescent instant by pointing the moved
// buckets at their receivers; Migrate only copies.
type transfer struct {
	rejoin  bool
	dest    []int // bucket -> receiving member, -1 for a bucket not moving
	members []int // donors and receivers, all quiet at cutover
	parts   []*pipeTransfer
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
// in chunks of chunk entries (0: the handoff default) into a routeImporter
// onto dest. Its events name the receiver when there is one, else -1.
func (c *Cluster) newTransfer(now Time, donors, receivers, dest []int, chunk int) *transfer {
	x := &transfer{dest: dest, members: slices.Concat(donors, receivers)}
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
					ChunkSize: chunk, Tracer: dp.Tracer(), Donor: d, Receiver: label,
				})
			})
			x.parts = append(x.parts, pt)
		}
	}
	return x
}

// step pumps up to budget records out of every donor pipe and reports
// whether every part has converged.
func (x *transfer) step(now Time, budget int) (moved int, done bool) {
	done = true
	for _, pt := range x.parts {
		pt.eng.Inspect(pt.pipe, func(*dataplane.Switch, *ctrlplane.ControlPlane) {
			mv, d := pt.tr.Step(now, budget)
			moved += mv
			done = done && d
		})
	}
	return moved, done
}

// finish closes every part and returns their summed stats. With release
// (a cutover), each donor pipe first ends its copies of the connections it
// handed over: state ownership moves with the traffic.
func (x *transfer) finish(now Time, release bool) HandoffStats {
	var agg HandoffStats
	for _, pt := range x.parts {
		pt.eng.Inspect(pt.pipe, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			for _, im := range pt.im.ims {
				if im != nil && release {
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

// Migrate warm-copies member from's entire connection table into member
// to while from keeps forwarding: per-pipe export sessions stream the
// snapshot, then the delta feed replays whatever landed mid-flight, until
// the receiver has converged to the donor's exact table. Returns the
// aggregate transfer stats. The donor's state is left intact — Migrate
// pre-warms a standby and moves no traffic; a drain also moves the spray.
func (c *Cluster) Migrate(now Time, from, to int) (HandoffStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.member(from) != nil || c.member(to) != nil || from == to {
		return HandoffStats{}, fmt.Errorf("silkroad: bad migration %d -> %d", from, to)
	}
	dest := make([]int, len(c.spray))
	for b := range dest {
		dest[b] = to
	}
	x := c.newTransfer(now, []int{from}, []int{to}, dest, 0)
	donor, recv := c.sws[from], c.sws[to]
	t := now
	for attempt := 0; ; attempt++ {
		if _, done := x.step(t, 1024); done {
			break
		}
		if attempt > 10000 {
			x.cancel(t)
			return HandoffStats{}, ErrMigrateStalled
		}
		t = t.Add(simtime.Millisecond)
		donor.AdvanceTo(t)
		recv.AdvanceTo(t)
	}
	end := t.Add(simtime.Millisecond)
	agg := x.finish(end, false)
	donor.AdvanceTo(end)
	recv.AdvanceTo(end)
	return agg, nil
}

// DrainSwitch begins warm-migrating member i's shard to the other
// in-service members: an export session opens on every donor pipe and the
// post-drain spray is planned (the redistribution FailSwitch would apply)
// without touching the live spray, so the donor keeps forwarding at full
// rate while DrainStep pumps its state out.
func (c *Cluster) DrainSwitch(now Time, i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.xfer = c.newTransfer(now, []int{i}, survivors, dest, 128)
	return nil
}

// DrainStep pumps the active drain: up to budget records per donor pipe
// (budget <= 0 means unbounded), pausing on receiver backpressure. Once
// the transfer has converged and the donor and every receiver are
// quiescent (no pending learns, inserts or updates, so no straggler can
// install after cutover), the planned buckets flip to their receivers and
// the drain completes. moved is the progress signal stall detection
// watches.
func (c *Cluster) DrainStep(now Time, budget int) (moved int, done bool, err error) {
	return c.pump(now, budget, false)
}

// CancelDrain abandons the active drain (stall rollback): the receivers
// unwind every imported entry, and the donor keeps its table and traffic.
func (c *Cluster) CancelDrain(now Time) error { return c.abort(now, false) }

// RejoinSwitch begins migrating member i's original spray buckets back
// from the members now holding them, after a restore and re-announce. It
// is gated on warmth (ErrNotWarm until the member is in service, announces
// every VIP a healthy peer announces and has no pending work; callers
// retry as it converges). Traffic moves only at RejoinStep's cutover.
func (c *Cluster) RejoinSwitch(now Time, i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.xfer = c.newTransfer(now, donors, []int{i}, dest, 128)
	c.xfer.rejoin = true
	return nil
}

// warm reports whether member i can serve: in service, every VIP the
// first healthy peer announces installed, and no pending work.
func (c *Cluster) warm(i int) bool {
	if c.down[i] {
		return false
	}
	have := intentTarget{c: c, m: i}.ObservedVIPs()
	for j := range c.sws {
		if j != i && !c.down[j] {
			for _, vip := range (intentTarget{c: c, m: j}).ObservedVIPs() {
				if !slices.Contains(have, vip) {
					return false
				}
			}
			break
		}
	}
	return c.sws[i].PendingWork() == 0
}

// RejoinStep pumps the active rejoin like DrainStep; at its cutover the
// reclaimed buckets flip back and each donor releases its copies of the
// connections it handed over.
func (c *Cluster) RejoinStep(now Time, budget int) (moved int, done bool, err error) {
	return c.pump(now, budget, true)
}

// CancelRejoin abandons the active rejoin: the member unwinds every
// imported entry and the donors keep serving its buckets.
func (c *Cluster) CancelRejoin(now Time) error { return c.abort(now, true) }

// pump steps the active drain (or rejoin) and cuts it over once converged
// and quiescent.
func (c *Cluster) pump(now Time, budget int, rejoin bool) (moved int, done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	x := c.xfer
	if x == nil || x.rejoin != rejoin {
		return 0, false, ErrNoTransfer
	}
	moved, done = x.step(now, budget)
	for _, m := range x.members {
		done = done && c.sws[m].PendingWork() == 0
	}
	if !done {
		return moved, false, nil
	}
	c.stats.Migrated += uint64(c.flip(x.dest))
	c.stats.LastHandoff = x.finish(now, true)
	c.xfer = nil
	return moved, true, nil
}

// abort cancels the active drain (or rejoin).
func (c *Cluster) abort(now Time, rejoin bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.xfer == nil || c.xfer.rejoin != rejoin {
		return ErrNoTransfer
	}
	c.xfer.cancel(now)
	c.xfer = nil
	return nil
}
