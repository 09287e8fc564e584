package telemetry

import "sort"

// Allocation-free read surface for periodic samplers (internal/slo).
//
// The SLO engine snapshots the registry every evaluation interval. Going
// through Snapshot would allocate four maps per tick; the readers below
// instead copy the built-in instruments (Registry.in) into caller-owned structs
// and slices, so a steady-state sample performs only atomic loads. None of
// them take any lock the packet path holds: the built-ins are plain
// atomics, the pipe table is a copy-on-write atomic pointer, and r.mu (the
// VIP readers) is a registration-time lock the event fold never touches.

// CoreStats is a flat copy of the built-in chip-wide instruments the SLO
// engine derives SLIs from. Counter fields carry cumulative totals; the
// caller subtracts consecutive reads to get interval deltas.
type CoreStats struct {
	InsertsLearned   uint64
	DigestFPs        uint64
	BloomFPs         uint64
	InsertDuplicates uint64
	InsertOverflows  uint64
	InsertRetries    uint64
	InsertSheds      uint64
	UpdatesRequested uint64
	UpdatesCompleted uint64
	LearnFlushes     uint64
	MeterDropBytes   uint64
	DegradedTrans    uint64
	FaultsInjected   uint64

	QueueDepth       int64
	QueuePeak        int64
	ConnOccupancyPPM int64
	DegradedPipes    int64
}

// ReadCore fills out with the current built-in instrument values.
func (r *Registry) ReadCore(out *CoreStats) {
	out.InsertsLearned = r.in[insertsLearned].c.Load()
	out.DigestFPs = r.in[digestFPs].c.Load()
	out.BloomFPs = r.in[bloomFPs].c.Load()
	out.InsertDuplicates = r.in[insertDups].c.Load()
	out.InsertOverflows = r.in[insertOverflows].c.Load()
	out.InsertRetries = r.in[insertRetries].c.Load()
	out.InsertSheds = r.in[insertSheds].c.Load()
	out.UpdatesRequested = r.in[updatesRequested].c.Load()
	out.UpdatesCompleted = r.in[updatesCompleted].c.Load()
	out.LearnFlushes = r.in[learnFlushes].c.Load()
	out.MeterDropBytes = r.in[meterDropBytes].c.Load()
	out.DegradedTrans = r.in[degradedTransitions].c.Load()
	out.FaultsInjected = r.in[faultsInjected].c.Load()
	out.QueueDepth = r.in[queueDepth].g.Load()
	out.QueuePeak = r.in[queuePeak].g.Load()
	out.ConnOccupancyPPM = r.in[connOccupancy].g.Load()
	out.DegradedPipes = r.in[degradedPipes].g.Load()
}

// ReadPendingWindow snapshots the pending-window histogram into out,
// reusing out's slices (see Histogram.SnapshotInto).
func (r *Registry) ReadPendingWindow(out *HistogramSnapshot) {
	r.in[pendingWindow].h.SnapshotInto(out)
}

// PipeOccupancy is one pipe's occupancy-tap reading: ConnTable entries and
// effective capacity after the pipe's most recent mutation, plus its
// degraded flag and packet counter.
type PipeOccupancy struct {
	Pipe     int
	Packets  uint64
	Entries  int64
	Capacity int64
	Degraded bool
}

// ReadPipes fills out[:n] with per-pipe occupancy readings, where n is
// min(len(out), pipes seen so far), and returns the total pipe count. A
// pipe that has not yet inserted a connection reads Capacity 0.
func (r *Registry) ReadPipes(out []PipeOccupancy) int {
	ps := *r.pipes.Load()
	for i, p := range ps {
		if i >= len(out) {
			break
		}
		out[i] = PipeOccupancy{
			Pipe:     i,
			Packets:  p.packets.Load(),
			Entries:  p.connEntries.Load(),
			Capacity: p.connCapacity.Load(),
			Degraded: p.degraded.Load() != 0,
		}
	}
	return len(ps)
}

// NumVIPs returns the number of distinct VIPs registered so far. Samplers
// use it as a cheap change detector before re-fetching VIPKeys.
func (r *Registry) NumVIPs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vipKeys)
}

// VIPKeys returns every registered VIP key in a deterministic order
// (address, then port, then protocol). It allocates; callers cache the
// result and refresh only when NumVIPs changes.
func (r *Registry) VIPKeys() []VIPKey {
	r.mu.Lock()
	keys := make([]VIPKey, 0, len(r.vipKeys))
	for k := range r.vipKeys {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if c := keys[i].Addr.Compare(keys[j].Addr); c != 0 {
			return c < 0
		}
		if keys[i].Port != keys[j].Port {
			return keys[i].Port < keys[j].Port
		}
		return keys[i].Proto < keys[j].Proto
	})
	return keys
}

// ReadVIP sums vip's per-pipe series into out (out is reset first). It
// reports whether the VIP is registered.
func (r *Registry) ReadVIP(vip VIPKey, out *VIPSnapshot) bool {
	*out = VIPSnapshot{}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.vipKeys[vip] {
		return false
	}
	for k, v := range r.vips {
		if k.vip == vip {
			v.snapshotInto(out)
		}
	}
	return true
}
