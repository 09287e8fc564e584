package silkroad

// Connection-state handoff facade: point-in-time conn-table snapshots
// (Export/Import on a Switch) and live warm migration between fleet
// members (Cluster.Migrate). The heavy lifting lives in internal/handoff
// (wire types, transfer pump) and internal/ctrlplane (export sessions,
// rate-bounded imports); this file routes them across pipes and members
// under the facade's locking discipline.

import (
	"errors"
	"fmt"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/handoff"
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
// self-contained: each entry carries its pinned pool content and resolved
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
// owning pipe, remapped onto a local pool version by content, and pinned
// through the bounded CPU insertion queue — the same rate limit learned
// connections pay, so an import cannot starve live learning. Backpressure
// is absorbed by advancing the switch's runtime until the queue drains.
// Entries the switch cannot host (unknown VIP) are skipped and counted in
// the second return.
func (s *Switch) Import(now Time, snap *ConnSnapshot) (imported, skipped int, err error) {
	ims := make([]*ctrlplane.Importer, s.Pipes())
	for i := range ims {
		s.eng.Inspect(i, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			ims[i] = ctrlplane.NewImporter(cp)
		})
	}
	t := now
	for _, e := range snap.Entries {
		if e.Op == handoff.OpDelete {
			continue // point-in-time snapshots carry no deletes
		}
		p := s.eng.PipeOf(e.Tuple)
		for attempt := 0; ; attempt++ {
			var ierr error
			s.eng.Inspect(p, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
				ierr = ims[p].Import(t, e)
			})
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

// migrateImporter routes entries into the receiving switch's pipes under
// their locks.
type migrateImporter struct {
	s   *Switch
	ims []*ctrlplane.Importer
}

func (m *migrateImporter) Import(now Time, e handoff.Entry) error {
	p := m.s.eng.PipeOf(e.Tuple)
	var err error
	m.s.eng.Inspect(p, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
		err = m.ims[p].Import(now, e)
	})
	return err
}

func (m *migrateImporter) Delete(now Time, e handoff.Entry) {
	p := m.s.eng.PipeOf(e.Tuple)
	m.s.eng.Inspect(p, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
		m.ims[p].Delete(now, e)
	})
}

// Migrate warm-copies member from's entire connection table into member
// to while from keeps forwarding: per-pipe export sessions stream the
// snapshot, then the delta feed replays whatever landed mid-flight, until
// the receiver has converged to the donor's exact table. Returns the
// aggregate transfer stats. The donor's state is left intact — Migrate
// pre-warms a standby; traffic steering is the caller's business (or
// internal/cluster's drain, which also flips the spray).
func (c *Cluster) Migrate(now Time, from, to int) (HandoffStats, error) {
	var agg HandoffStats
	if from < 0 || from >= len(c.sws) || to < 0 || to >= len(c.sws) || from == to {
		return agg, fmt.Errorf("silkroad: bad migration %d -> %d", from, to)
	}
	donor, recv := c.sws[from], c.sws[to]
	ri := &migrateImporter{s: recv, ims: make([]*ctrlplane.Importer, recv.Pipes())}
	for i := range ri.ims {
		recv.eng.Inspect(i, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			ri.ims[i] = ctrlplane.NewImporter(cp)
		})
	}
	trs := make([]*handoff.Transfer, donor.Pipes())
	for i := range trs {
		donor.eng.Inspect(i, func(dp *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			trs[i] = handoff.NewTransfer(cp.BeginExport(now), ri, handoff.Config{
				Tracer: dp.Tracer(), Donor: from, Receiver: to,
			})
		})
	}
	t := now
	for attempt := 0; ; attempt++ {
		allDone := true
		for i, tr := range trs {
			var done bool
			donor.eng.Inspect(i, func(*dataplane.Switch, *ctrlplane.ControlPlane) {
				_, done = tr.Step(t, 1024)
			})
			if !done {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if attempt > 10000 {
			for _, tr := range trs {
				tr.Cancel(t)
			}
			return agg, ErrMigrateStalled
		}
		t = t.Add(simtime.Millisecond)
		donor.AdvanceTo(t)
		recv.AdvanceTo(t)
	}
	end := t.Add(simtime.Millisecond)
	for _, tr := range trs {
		tr.Finish(end)
		st := tr.Stats()
		agg.Exported += st.Exported
		agg.Imported += st.Imported
		agg.Deltas += st.Deltas
		agg.Chunks += st.Chunks
		agg.Backoffs += st.Backoffs
	}
	donor.AdvanceTo(end)
	recv.AdvanceTo(end)
	return agg, nil
}
