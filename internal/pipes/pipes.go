// Package pipes models the multi-pipeline organisation of a real switching
// ASIC. Tofino-class chips do not forward through one pipeline: the chip is
// built from 2-4 independent pipes, each with its own match stages, SRAM
// budget, learning filter and (logically) its own slice of the management
// CPU. A port belongs to exactly one pipe, so every packet of a connection
// traverses the same pipe, and each pipe keeps its own ConnTable — the
// chip-level connection state is the disjoint union of per-pipe tables.
//
// The Engine reproduces that structure: N dataplane.Switch+
// ctrlplane.ControlPlane pairs, each guarded by its own mutex, with traffic
// sharded by a hash of the connection 5-tuple (the stand-in for "which
// ingress port group the flow enters on"). Because the shard is by
// connection, per-connection consistency is untouched: a connection is
// pinned to one pipe and its ConnTable for life. VIP and DIP-pool
// configuration is replicated to every pipe, exactly as the control plane
// programs identical VIPTable/DIPPoolTable contents into each pipeline.
//
// ProcessFramesInto is the one packet entry point; a single frame is a
// batch of one. It shards a batch by connection and runs each pipe's share
// on the caller's goroutine, in pipe order, under that pipe's lock. A
// multi-frame batch on many pipes also holds the batch lock, which guards
// the shard buffers, so such batches take turns; a lone frame takes only
// its pipe's lock, and runs, like a config fanout or a stats read, beside
// work on other pipes. The batch path is
// allocation-free in steady state: shard buffers are per-engine and reused.
// A chip-level lane hash of the tuple picks the pipe; inside it the pipe
// hashes the tuple as a one-pipe switch does, under its own seed.
// Aggregate Stats, Metrics and SRAM figures are chip-level sums over the
// pipes.
package pipes

import (
	"fmt"
	"sync"

	"repro/internal/asic"
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/hashing"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// Config parameterizes a multi-pipe engine. Dataplane describes the chip
// as a whole — the engine divides the SRAM budget and the ConnTable sizing
// target evenly across pipes (asic.Config.PerPipe).
type Config struct {
	// Pipes is the number of independent forwarding pipelines (1-4 on real
	// chips; any positive count is accepted). Values below 1 mean 1.
	Pipes int
	// Dataplane is the chip-level data-plane configuration. Its Tracer
	// receives every pipe's events, each labelled with its pipe index (the
	// engine sets Pipe per pipe), so it must be safe for concurrent use:
	// calls that reach different pipes run in parallel, each under its own
	// pipe's lock.
	Dataplane dataplane.Config
	// Controlplane configures each pipe's slice of the switch software.
	Controlplane ctrlplane.Config
}

// pipe is one forwarding pipeline: a data plane, its control-plane slice,
// and the lock that serializes access to both, the way the one pipeline and
// its slice of the switch CPU would. Flows are sharded onto pipes, so this
// one lock per pipe is all the synchronisation the packet path needs.
type pipe struct {
	mu        sync.Mutex
	dp        *dataplane.Switch
	cp        *ctrlplane.ControlPlane
	processed uint64 // packets this pipe has handled (for occupancy stats)
}

// Engine is a chip of N parallel pipes behind one management interface.
type Engine struct {
	cfg      Config
	seed     uint64 // shard seed (tuple -> pipe)
	laneSeed uint64 // chip-level ingress lane hash seed (pipe choice)
	pipes    []*pipe

	// Batch path state (multi-pipe only). batchMu serializes batches so
	// the shard buffers below are reused allocation-free across them.
	batchMu sync.Mutex
	shards  [][]int32 // per-pipe packet indices, reused
}

// Stats aggregates per-pipe hardware and software counters into chip-level
// totals.
type Stats struct {
	Dataplane    dataplane.Stats
	Controlplane ctrlplane.Metrics
	Connections  int // sum of per-pipe software shadows
	MemoryBytes  int // sum of per-pipe SRAM consumption
	// PipePackets[i] is the number of packets pipe i processed; the spread
	// across pipes is the shard balance.
	PipePackets []uint64
}

// shardSeedSalt diversifies the shard seed (the 5-tuple -> pipe hash's)
// away from the chip seed, so sharding and in-pipe hashing stay
// independent functions.
const shardSeedSalt = 0x9155_0a1d_70_4e5

// New builds an engine of cfg.Pipes pipes. Each pipe receives 1/N of the
// chip SRAM and of the ConnTable sizing target. On a multi-pipe chip the
// seeds are diversified per pipe, so the pipes' hash functions are
// independent as on real hardware. A one-pipe engine is a bare data plane:
// pipe 0 gets cfg.Dataplane as written — the caller's Seed — so its
// placement and digests are those of dataplane.New(cfg.Dataplane).
func New(cfg Config) (*Engine, error) {
	n := cfg.Pipes
	if n < 1 {
		n = 1
	}
	seed := cfg.Dataplane.Seed ^ shardSeedSalt
	if seed == 0 {
		// Dataplane.Seed == shardSeedSalt: the XOR would collapse to zero
		// and the shard hash would silently run unseeded. Keep the
		// derivation explicit and deterministic instead.
		seed = shardSeedSalt
	}
	e := &Engine{
		cfg:      cfg,
		seed:     seed,
		laneSeed: cfg.Dataplane.Seed,
		pipes:    make([]*pipe, n),
	}
	for i := range e.pipes {
		dcfg := cfg.Dataplane
		dcfg.Chip = dcfg.Chip.PerPipe(n)
		dcfg.ConnTableEntries = (cfg.Dataplane.ConnTableEntries + n - 1) / n
		if n > 1 {
			dcfg.Seed = cfg.Dataplane.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))
		}
		dcfg.Pipe = i
		dp, err := dataplane.New(dcfg)
		if err != nil {
			return nil, fmt.Errorf("pipes: pipe %d: %w", i, err)
		}
		e.pipes[i] = &pipe{dp: dp, cp: ctrlplane.New(dp, cfg.Controlplane)}
	}
	if n > 1 {
		e.shards = make([][]int32, n)
	}
	return e, nil
}

// NumPipes returns the number of pipes.
func (e *Engine) NumPipes() int { return len(e.pipes) }

// PipeOf returns the index of the pipe that carries connection t. The
// shard hashes the full 5-tuple through the chip-level lane hash, so
// sharding stays stable for a connection's lifetime and per-pipe ConnTables
// never see each other's flows. Every tuple-addressed entry point
// (ProcessFramesInto, EndConnection) uses this one mapping.
func (e *Engine) PipeOf(t netproto.FiveTuple) int {
	if len(e.pipes) == 1 {
		return 0
	}
	return int(hashing.HashUint64(e.seed, netproto.LaneHash(e.laneSeed, &t)) % uint64(len(e.pipes)))
}

// Dataplane exposes pipe i's data plane for inspection. Callers must not
// interleave direct mutations with concurrent ProcessFramesInto calls; the
// accessor bypasses the pipe lock.
func (e *Engine) Dataplane(i int) *dataplane.Switch { return e.pipes[i].dp }

// Controlplane exposes pipe i's switch software (same caveat as Dataplane).
func (e *Engine) Controlplane(i int) *ctrlplane.ControlPlane { return e.pipes[i].cp }

// Inspect runs fn against pipe i's planes under the pipe lock, so debug
// surfaces can read table state safely while batches run on other
// goroutines. fn must not retain the pointers past its return.
func (e *Engine) Inspect(i int, fn func(dp *dataplane.Switch, cp *ctrlplane.ControlPlane)) {
	p := e.pipes[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(p.dp, p.cp)
}

// The four methods below, with NumPipes, make the engine a fault injector's
// target (faults.Target): CPU faults hit a pipe's control plane, table and
// digest faults its data plane, each under that pipe's lock. A fault plan
// is caller input and may name a pipe the chip does not have; such an
// event is ignored.

// StallCPU freezes pipe's insertion CPU for d starting at now.
func (e *Engine) StallCPU(now simtime.Time, pipe int, d simtime.Duration) {
	e.inject(pipe, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) { cp.StallCPU(now, d) })
}

// SetInsertRateScale multiplies pipe's insertion rate (1 or 0 = normal).
func (e *Engine) SetInsertRateScale(pipe int, scale float64) {
	e.inject(pipe, func(_ *dataplane.Switch, cp *ctrlplane.ControlPlane) { cp.SetInsertRateScale(scale) })
}

// SetConnTableLimit caps pipe's ConnTable occupancy (0 = uncapped).
func (e *Engine) SetConnTableLimit(pipe, limit int) {
	e.inject(pipe, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) { dp.SetConnTableLimit(limit) })
}

// SetLearnLoss drops new learn digests on pipe with probability rate from a
// seed-deterministic stream (rate <= 0 = off).
func (e *Engine) SetLearnLoss(pipe int, rate float64, seed uint64) {
	e.inject(pipe, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) { dp.LearnFilter().SetLoss(rate, seed) })
}

func (e *Engine) inject(pipe int, fn func(dp *dataplane.Switch, cp *ctrlplane.ControlPlane)) {
	if pipe >= 0 && pipe < len(e.pipes) {
		e.Inspect(pipe, fn)
	}
}

// ProcessFramesInto is the engine's one packet entry point; a single frame
// is a batch of one. Frames are scattered to their owning pipes (PipeOf),
// each pipe processes its share in arrival order with zero re-decode, and
// results are gathered back in input order into the caller-provided slice
// (len(results) >= len(frames)) — allocation-free for the socket RX loop
// that reuses frame and result buffers across batches. On a multi-pipe
// engine the shares run on the caller, one pipe after another (runJob).
// Frames are read, never written, by the pipeline — TX rewrites belong to
// the caller after the verdicts return.
func (e *Engine) ProcessFramesInto(now simtime.Time, frames []netproto.Frame, results []dataplane.Result) {
	if len(frames) == 0 {
		return
	}
	if len(e.pipes) == 1 {
		// One pipe: nothing to shard, so the batch runs under one
		// acquisition of the pipe lock.
		p := e.pipes[0]
		p.mu.Lock()
		for i := range frames {
			// The per-packet step, polling before every frame. A poll per
			// batch plus one whenever the learn filter fills is exact too
			// (runJob; TestBatchPollMatchesFramePoll); moving to it is
			// ROADMAP item 2.
			f := &frames[i]
			p.cp.Advance(now)
			p.dp.ProcessFrameInto(now, f, &results[i])
			p.cp.HandleTupleResultInto(now, f.Tuple, &results[i])
		}
		p.processed += uint64(len(frames))
		p.mu.Unlock()
		return
	}
	if len(frames) == 1 {
		// A lone frame needs no shard buffers, so it skips the batch lock
		// and runs beside other callers' work on other pipes.
		idx := [1]int32{0}
		e.pipes[e.PipeOf(frames[0].Tuple)].runJob(now, frames, idx[:], results)
		return
	}
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	for pi := range e.shards {
		e.shards[pi] = e.shards[pi][:0]
	}
	for i := range frames {
		pi := e.PipeOf(frames[i].Tuple)
		e.shards[pi] = append(e.shards[pi], int32(i))
	}
	for pi, idxs := range e.shards {
		if len(idxs) > 0 {
			e.pipes[pi].runJob(now, frames, idxs, results)
		}
	}
}

// runJob processes one pipe's share of a batch, idxs in arrival order,
// under the pipe lock. It runs the per-packet step of the one-pipe loop
// above but polls less, exactly: every packet of a batch shares its
// timestamp, so a per-frame poll finds work due only once at the start and
// then only when the previous frame filled the learn filter (its flush is
// due the instant it fills); runJob polls at exactly those points.
func (p *pipe) runJob(now simtime.Time, frames []netproto.Frame, idxs []int32, results []dataplane.Result) {
	p.mu.Lock()
	p.cp.Advance(now)
	for _, i := range idxs {
		if p.dp.LearnFilter().Full() {
			p.cp.Advance(now)
		}
		f := &frames[i]
		p.dp.ProcessFrameInto(now, f, &results[i])
		p.cp.HandleTupleResultInto(now, f.Tuple, &results[i])
	}
	p.processed += uint64(len(idxs))
	p.mu.Unlock()
}

// AddVIP announces a VIP with an initial pool on every pipe (VIP
// configuration is replicated chip-wide). On failure the VIP is rolled back
// from pipes already programmed, so the pipes never diverge.
func (e *Engine) AddVIP(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP, meterBytesPerSec float64) error {
	return e.fanout(
		func(p *pipe) error { return p.cp.AddVIP(now, vip, pool, meterBytesPerSec) },
		func(p *pipe) { _ = p.cp.RemoveVIP(now, vip) },
	)
}

// RemoveVIP withdraws a VIP from every pipe. Unlike the pool operations
// below, a failure triggers no rollback: every pipe is attempted and the
// first error returned, because the target state — "VIP absent" — is
// already identical on every pipe that succeeded or never had the VIP, so
// the operation converges without repair.
func (e *Engine) RemoveVIP(now simtime.Time, vip dataplane.VIP) error {
	var first error
	for _, p := range e.pipes {
		p.mu.Lock()
		err := p.cp.RemoveVIP(now, vip)
		p.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AddDIP adds a backend to vip's pool on every pipe with PCC. A mid-fanout
// failure removes the backend again from the pipes already updated.
func (e *Engine) AddDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error {
	return e.fanout(
		func(p *pipe) error { return p.cp.AddDIP(now, vip, dip) },
		func(p *pipe) { _ = p.cp.RemoveDIP(now, vip, dip) },
	)
}

// RemoveDIP removes a backend from vip's pool on every pipe with PCC. A
// mid-fanout failure re-adds the backend on the pipes already updated.
func (e *Engine) RemoveDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error {
	return e.fanout(
		func(p *pipe) error { return p.cp.RemoveDIP(now, vip, dip) },
		func(p *pipe) { _ = p.cp.AddDIP(now, vip, dip) },
	)
}

// RequestUpdate replaces vip's pool wholesale on every pipe with PCC. A
// mid-fanout failure re-requests, on the pipes already updated, the target
// pool each was heading for before the call.
func (e *Engine) RequestUpdate(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	prior := make(map[*pipe][]dataplane.DIP, len(e.pipes))
	return e.fanout(
		func(p *pipe) error {
			if before, err := p.cp.TargetPool(vip); err == nil {
				prior[p] = before
			}
			return p.cp.RequestUpdate(now, vip, pool)
		},
		func(p *pipe) {
			if before, ok := prior[p]; ok {
				_ = p.cp.RequestUpdate(now, vip, before)
			}
		},
	)
}

// fanout applies op to the pipes in order; on the first failure it applies
// undo to the pipes already mutated, in reverse order, and returns the
// error, so a mid-fanout failure cannot leave the chip with diverged
// per-pipe VIPs or pools. Config errors are
// deterministic across pipes when VIP state is replicated, so in the
// common case pipe 0 fails and there is nothing to undo; the rollback
// covers the pathological cases (a pipe diverged through direct
// Controlplane access, version exhaustion on one pipe).
func (e *Engine) fanout(op func(p *pipe) error, undo func(p *pipe)) error {
	for i, p := range e.pipes {
		p.mu.Lock()
		err := op(p)
		p.mu.Unlock()
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				q := e.pipes[j]
				q.mu.Lock()
				undo(q)
				q.mu.Unlock()
			}
			return err
		}
	}
	return nil
}

// CurrentPool returns the pool new connections map to (identical on every
// pipe; read from pipe 0).
func (e *Engine) CurrentPool(vip dataplane.VIP) ([]dataplane.DIP, error) {
	p := e.pipes[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cp.CurrentPool(vip)
}

// PendingWork sums every pipe's control-plane pending work (undrained
// learn events, queued inserts, in-flight and queued pool updates). Zero
// means the whole chip is drained — the rolling-update gate.
func (e *Engine) PendingWork() int {
	n := 0
	for _, p := range e.pipes {
		p.mu.Lock()
		n += p.cp.PendingWork()
		p.mu.Unlock()
	}
	return n
}

// EndConnection tells the owning pipe that a connection terminated.
func (e *Engine) EndConnection(now simtime.Time, t netproto.FiveTuple) {
	p := e.pipes[e.PipeOf(t)]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cp.EndConnection(now, t)
}

// Advance runs background work due at or before now on every pipe.
func (e *Engine) Advance(now simtime.Time) {
	for _, p := range e.pipes {
		p.mu.Lock()
		p.cp.Advance(now)
		p.mu.Unlock()
	}
}

// NextEventTime returns the earliest time any pipe has background work due.
func (e *Engine) NextEventTime() (simtime.Time, bool) {
	var best simtime.Time
	have := false
	for _, p := range e.pipes {
		p.mu.Lock()
		at, ok := p.cp.NextEventTime()
		p.mu.Unlock()
		if ok && (!have || at.Before(best)) {
			best, have = at, true
		}
	}
	return best, have
}

// PipeStats is one pipe's view of the chip: its own hardware counters,
// software metrics and SRAM consumption. The facade exposes the same type
// for single-pipe switches, so callers inspect per-pipe state without
// branching on the pipe count.
type PipeStats struct {
	Pipe         int // pipe index on the chip
	Dataplane    dataplane.Stats
	Controlplane ctrlplane.Metrics
	Connections  int    // software shadow size of this pipe
	MemoryBytes  int    // SRAM consumed by this pipe's tables
	Packets      uint64 // packets this pipe processed (shard balance)
}

// PerPipe returns each pipe's individual counters in pipe order.
func (e *Engine) PerPipe() []PipeStats {
	out := make([]PipeStats, len(e.pipes))
	for i, p := range e.pipes {
		p.mu.Lock()
		out[i] = PipeStats{
			Pipe:         i,
			Dataplane:    p.dp.Stats(),
			Controlplane: p.cp.Metrics(),
			Connections:  p.cp.TrackedConns(),
			MemoryBytes:  p.dp.Memory().Total(),
			Packets:      p.processed,
		}
		p.mu.Unlock()
	}
	return out
}

// Stats returns chip-level totals summed over the pipes.
func (e *Engine) Stats() Stats {
	out := Stats{PipePackets: make([]uint64, len(e.pipes))}
	for i, p := range e.pipes {
		p.mu.Lock()
		ds := p.dp.Stats()
		ms := p.cp.Metrics()
		out.Connections += p.cp.TrackedConns()
		out.MemoryBytes += p.dp.Memory().Total()
		out.PipePackets[i] = p.processed
		p.mu.Unlock()
		out.Dataplane.Add(ds)
		out.Controlplane.Add(ms)
	}
	return out
}

// Memory returns the chip-level SRAM breakdown summed over pipes.
func (e *Engine) Memory() dataplane.MemoryBreakdown {
	var m dataplane.MemoryBreakdown
	for _, p := range e.pipes {
		p.mu.Lock()
		pm := p.dp.Memory()
		p.mu.Unlock()
		m.Add(pm)
	}
	return m
}

// Used returns the chip-level allocated hardware resources summed over
// pipes (Table 2 classes).
func (e *Engine) Used() asic.Resources {
	var r asic.Resources
	for _, p := range e.pipes {
		p.mu.Lock()
		u := p.dp.Chip().Used()
		p.mu.Unlock()
		r.Add(u)
	}
	return r
}
