package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// perPipePacketRate is the line rate of one forwarding pipeline in packets
// per second. A Tofino-class pipe forwards minimum-size packets at about
// 1 Bpps (roughly 1.6 Tb/s per pipe at 200 B average frames); the exact
// constant cancels out of the speedup ratio.
const perPipePacketRate = 1e9

// PipesBenchConfig is the measured outcome for one pipe count.
type PipesBenchConfig struct {
	Pipes       int      `json:"pipes"`
	Packets     uint64   `json:"packets"`
	PipePackets []uint64 `json:"pipe_packets"`
	Connections int      `json:"connections"`
	// ModeledPPS is the chip's aggregate forwarding rate under the ASIC
	// model: each pipe drains its shard at the per-pipe line rate, so the
	// chip finishes when its most-loaded pipe does.
	ModeledPPS float64 `json:"modeled_pps"`
	// WallclockPPS is established-traffic packets per wall-clock second of
	// this simulation run on the build host: connections are primed and
	// drained before the timer starts, so the figure is the steady-state
	// batch-path rate, not a mix of handshakes and table churn.
	WallclockPPS float64 `json:"wallclock_pps"`
	// FramesPPS is the same steady-state measurement over the wire-native
	// path: the identical connections pre-marshaled to raw bytes and
	// pre-parsed once, then swept through ProcessFramesInto. Parsing stays
	// outside the timed region (the tunnel parses each packet exactly once
	// on receive), so this is the frame currency's per-packet table cost.
	FramesPPS float64 `json:"frames_pps,omitempty"`
}

// PipesTrendPoint is one recorded run of the benchmark: the wallclock
// trajectory BENCH_pipes.json accumulates so regressions in the multi-pipe
// hot path show up as a ratio drop between consecutive points at the same
// scale.
type PipesTrendPoint struct {
	When            string  `json:"when"` // RFC 3339, build-host clock
	Scale           float64 `json:"scale"`
	OnePipePPS      float64 `json:"one_pipe_pps"`
	FourPipePPS     float64 `json:"four_pipe_pps"`
	WallclockSpeedX float64 `json:"wallclock_speedup"`
	// FourPipeFramesPPS records the absolute rate of parsed wire frames at
	// 4 pipes. Zero on points recorded before the frame path existed.
	FourPipeFramesPPS float64 `json:"four_pipe_frames_pps,omitempty"`
}

// maxTrajectory bounds how many trend points the artifact keeps (oldest
// dropped first).
const maxTrajectory = 50

// PipesBenchResult is the machine-readable payload written to
// BENCH_pipes.json.
type PipesBenchResult struct {
	Scale           float64            `json:"scale"`
	Seed            int64              `json:"seed"`
	Note            string             `json:"note"`
	Configs         []PipesBenchConfig `json:"configs"`
	ModeledSpeedup  float64            `json:"modeled_speedup"`
	WallclockSpeedX float64            `json:"wallclock_speedup"`
	// Trajectory carries this run's point appended to the points recorded
	// by previous runs (read back from the existing artifact, if any).
	Trajectory []PipesTrendPoint `json:"trajectory,omitempty"`
}

const pipesBenchNote = "modeled_pps is the aggregate throughput under the ASIC model: each pipe " +
	"forwards its shard at the per-pipe line rate (1e9 pps), so the chip-level rate is " +
	"total_packets / max_pipe_packets x line rate. wallclock_pps measures this simulator's " +
	"steady-state batch path on the build host (established traffic only; priming and drains " +
	"untimed); frames_pps is the same measurement over pre-parsed raw frames through " +
	"ProcessFramesInto, the one batch path the struct batch converts onto. wallclock_speedup = " +
	"4-pipe pps / 1-pipe pps is the gated headline; the trajectory records it per run so CI " +
	"can fail on a ratio regression."

// pipesMetrics is the METRICS_pipes.json payload: one telemetry snapshot
// per benchmarked pipe count, taken at end of run in virtual time.
type pipesMetrics struct {
	Note    string `json:"note"`
	Configs []struct {
		Pipes     int                `json:"pipes"`
		Telemetry telemetry.Snapshot `json:"telemetry"`
	} `json:"configs"`
}

const pipesMetricsNote = "end-of-run telemetry snapshots per pipe count; " +
	"histogram sums are in seconds of virtual time (e.g. the pending window " +
	"silkroad_insert_pending_window_seconds)."

// pipesBenchPackets pregenerates one packet per connection, outside the
// timed region: the measurement loops then only flip TCP flags and reuse
// the slice, so packet construction (address formatting in particular)
// never pollutes the wallclock figure.
func pipesBenchPackets(conns int) []*netproto.Packet {
	backing := make([]netproto.Packet, conns)
	pkts := make([]*netproto.Packet, conns)
	for i := range pkts {
		backing[i].Tuple = expTuple(i)
		pkts[i] = &backing[i]
	}
	return pkts
}

// pipesBenchFrames materializes the same connections as raw wire bytes
// parsed into frames, all outside the timed region — the tunnel parses
// each received packet exactly once, so the frames measurement charges
// only the table path, like the struct measurement does.
func pipesBenchFrames(pkts []*netproto.Packet) ([]netproto.Frame, error) {
	var arena, scratch []byte
	offs := make([]int, len(pkts)+1)
	for i, p := range pkts {
		raw, err := p.Marshal(scratch)
		if err != nil {
			return nil, fmt.Errorf("pipes bench: marshal conn %d: %w", i, err)
		}
		scratch = raw
		arena = append(arena, raw...)
		offs[i+1] = len(arena)
	}
	frames := make([]netproto.Frame, len(pkts))
	for i := range frames {
		if err := netproto.ParseFrame(arena[offs[i]:offs[i+1]:offs[i+1]], &frames[i]); err != nil {
			return nil, fmt.Errorf("pipes bench: reparse conn %d: %w", i, err)
		}
	}
	return frames, nil
}

// runPipesConfig drives one engine through the benchmark workload and
// returns its measured row, plus an end-of-run telemetry snapshot when
// CollectTelemetry is on (nil otherwise, keeping the hot path untraced).
//
// The workload has three phases: an untimed priming phase that opens every
// connection with SYN batches, an untimed drain that lets each pipe's CPU
// flush its learning filter and insertion queue, and the timed measurement
// phase — measurePasses ACK-only sweeps over the whole connection set
// through ProcessBatchInto with a reused results buffer. The timed region
// is therefore the steady-state batch path: hits in the ConnTable, no
// learns, no allocation.
func runPipesConfig(nPipes, conns, measurePasses, batchSize int, seed int64) (PipesBenchConfig, *telemetry.Snapshot, error) {
	tableTarget := 200_000
	if conns*2 > tableTarget {
		tableTarget = conns * 2 // keep every primed connection resident
	}
	dcfg := dataplane.DefaultConfig(tableTarget)
	dcfg.Seed = uint64(seed)
	pcfg := pipes.Config{
		Pipes:        nPipes,
		Dataplane:    dcfg,
		Controlplane: ctrlplane.DefaultConfig(),
	}
	var reg *telemetry.Registry
	if CollectTelemetry {
		reg = telemetry.NewRegistry()
		pcfg.Dataplane.Tracer = reg
	}
	eng, err := pipes.New(pcfg)
	if err != nil {
		return PipesBenchConfig{}, nil, err
	}
	defer eng.Close()
	if err := eng.AddVIP(0, expVIP(), expPool(8), 0); err != nil {
		return PipesBenchConfig{}, nil, err
	}

	pkts := pipesBenchPackets(conns)
	results := make([]dataplane.Result, batchSize)
	now := simtime.Time(0)

	// Prime: open every connection. A millisecond of virtual time per batch
	// keeps the learning filters flushing while the CPUs insert.
	for _, p := range pkts {
		p.TCPFlags = netproto.FlagSYN
	}
	for off := 0; off < conns; off += batchSize {
		end := off + batchSize
		if end > conns {
			end = conns
		}
		eng.ProcessBatchInto(now, pkts[off:end], results)
		now = now.Add(simtime.Duration(simtime.Millisecond))
		eng.Advance(now)
	}
	// Drain: let every pending insertion land so the measured passes run
	// against a fully populated ConnTable.
	now = now.Add(simtime.Duration(10 * simtime.Second))
	eng.Advance(now)

	// Measure: established traffic only. The work is repeated in three
	// independently timed repetitions and the fastest one is reported —
	// interference on a shared build host only ever slows a repetition
	// down, so the max-rate repetition is the closest to the code's true
	// cost and the most stable series for the gate to compare.
	for _, p := range pkts {
		p.TCPFlags = netproto.FlagACK
	}
	const measureReps = 3
	var bestPPS float64
	for rep := 0; rep < measureReps; rep++ {
		before := eng.Stats().Dataplane.Packets
		start := time.Now()
		for pass := 0; pass < measurePasses; pass++ {
			for off := 0; off < conns; off += batchSize {
				end := off + batchSize
				if end > conns {
					end = conns
				}
				eng.ProcessBatchInto(now, pkts[off:end], results)
				now = now.Add(simtime.Duration(simtime.Microsecond))
				eng.Advance(now)
			}
		}
		elapsed := time.Since(start).Seconds()
		if done := eng.Stats().Dataplane.Packets - before; elapsed > 0 && done > 0 {
			if pps := float64(done) / elapsed; pps > bestPPS {
				bestPPS = pps
			}
		}
	}

	// Frames mode: the identical established connections as pre-parsed wire
	// frames through ProcessFramesInto, timed the same way (best of three
	// repetitions). The connections are already resident, so both modes
	// measure pure ConnTable hits on the same switch state.
	frames, err := pipesBenchFrames(pkts)
	if err != nil {
		return PipesBenchConfig{}, nil, err
	}
	var bestFramesPPS float64
	for rep := 0; rep < measureReps; rep++ {
		before := eng.Stats().Dataplane.Packets
		start := time.Now()
		for pass := 0; pass < measurePasses; pass++ {
			for off := 0; off < conns; off += batchSize {
				end := off + batchSize
				if end > conns {
					end = conns
				}
				eng.ProcessFramesInto(now, frames[off:end], results)
				now = now.Add(simtime.Duration(simtime.Microsecond))
				eng.Advance(now)
			}
		}
		elapsed := time.Since(start).Seconds()
		if done := eng.Stats().Dataplane.Packets - before; elapsed > 0 && done > 0 {
			if pps := float64(done) / elapsed; pps > bestFramesPPS {
				bestFramesPPS = pps
			}
		}
	}
	st := eng.Stats()

	var maxPipe uint64
	for _, n := range st.PipePackets {
		if n > maxPipe {
			maxPipe = n
		}
	}
	row := PipesBenchConfig{
		Pipes:       nPipes,
		Packets:     st.Dataplane.Packets,
		PipePackets: st.PipePackets,
		Connections: st.Connections,
	}
	if maxPipe > 0 {
		row.ModeledPPS = float64(st.Dataplane.Packets) / float64(maxPipe) * perPipePacketRate
	}
	row.WallclockPPS = bestPPS
	row.FramesPPS = bestFramesPPS
	var snap *telemetry.Snapshot
	if reg != nil {
		s := reg.Snapshot(now)
		snap = &s
	}
	return row, snap, nil
}

// pipesArtifactName is where silkroad-bench writes the benchmark payload;
// PipesBench also reads it back (from the working directory) to extend the
// recorded wallclock trajectory.
const pipesArtifactName = "BENCH_pipes.json"

// priorTrajectory loads the trend points recorded by previous runs. A
// missing or unreadable artifact yields no history — the benchmark still
// runs, it just starts a fresh trajectory. Artifacts written before the
// trajectory existed contribute their headline ratio as a synthetic point,
// so the first trajectory-aware run still has a comparison baseline.
func priorTrajectory() []PipesTrendPoint {
	raw, err := os.ReadFile(pipesArtifactName)
	if err != nil {
		return nil
	}
	var prior PipesBenchResult
	if err := json.Unmarshal(raw, &prior); err != nil {
		return nil
	}
	if len(prior.Trajectory) == 0 && prior.WallclockSpeedX > 0 {
		pt := PipesTrendPoint{When: "(pre-trajectory artifact)", Scale: prior.Scale, WallclockSpeedX: prior.WallclockSpeedX}
		for _, c := range prior.Configs {
			switch c.Pipes {
			case 1:
				pt.OnePipePPS = c.WallclockPPS
			case 4:
				pt.FourPipePPS = c.WallclockPPS
			}
		}
		return []PipesTrendPoint{pt}
	}
	return prior.Trajectory
}

// GatePipes is the perf gate over the recorded trajectory: it fails when
// this run's 4-pipe vs 1-pipe wallclock speedup regressed by more than 30%
// against the most recent previous point at the same scale. Comparing the
// ratio rather than raw pps keeps the gate stable across build hosts of
// different speeds; comparing at equal scale keeps it honest across
// workload sizes. With no comparable history the gate passes.
func GatePipes(res PipesBenchResult) error {
	n := len(res.Trajectory)
	if n == 0 {
		return nil
	}
	cur := res.Trajectory[n-1]
	for i := n - 2; i >= 0; i-- {
		prev := res.Trajectory[i]
		if prev.Scale != cur.Scale || prev.WallclockSpeedX <= 0 {
			continue
		}
		if cur.WallclockSpeedX < 0.7*prev.WallclockSpeedX {
			return fmt.Errorf("pipes perf gate: wallclock speedup %.2fx is down more than 30%% from %.2fx (recorded %s at scale %g)",
				cur.WallclockSpeedX, prev.WallclockSpeedX, prev.When, prev.Scale)
		}
		return nil
	}
	return nil
}

// PipesBench measures aggregate throughput of a single-pipe chip against a
// 4-pipe chip on the same workload. The report carries a BENCH_pipes.json
// artifact whose trajectory section accumulates the wallclock speedup of
// every run (the series GatePipes checks).
func PipesBench(scale float64, seed int64) (*Report, error) {
	conns := int(20_000 * scale)
	if conns < 1000 {
		conns = 1000
	}
	const batchSize = 512
	// Floor the timed work at ~200K packets regardless of scale: at small
	// scales three sweeps over a 1000-connection set finish in well under a
	// millisecond, and timer jitter alone can swing the speedup ratio past
	// the gate's 30% band. More passes over the same established set change
	// only measurement duration, never behaviour.
	measurePasses := 3
	if conns*measurePasses < 200_000 {
		measurePasses = (200_000 + conns - 1) / conns
	}

	result := PipesBenchResult{Scale: scale, Seed: seed, Note: pipesBenchNote}
	metrics := pipesMetrics{Note: pipesMetricsNote}
	for _, n := range []int{1, 4} {
		row, snap, err := runPipesConfig(n, conns, measurePasses, batchSize, seed)
		if err != nil {
			return nil, err
		}
		result.Configs = append(result.Configs, row)
		if snap != nil {
			metrics.Configs = append(metrics.Configs, struct {
				Pipes     int                `json:"pipes"`
				Telemetry telemetry.Snapshot `json:"telemetry"`
			}{Pipes: n, Telemetry: *snap})
		}
	}
	one, four := result.Configs[0], result.Configs[1]
	if one.ModeledPPS > 0 {
		result.ModeledSpeedup = four.ModeledPPS / one.ModeledPPS
	}
	if one.WallclockPPS > 0 {
		result.WallclockSpeedX = four.WallclockPPS / one.WallclockPPS
	}
	result.Trajectory = append(priorTrajectory(), PipesTrendPoint{
		When:              time.Now().UTC().Format(time.RFC3339),
		Scale:             scale,
		OnePipePPS:        one.WallclockPPS,
		FourPipePPS:       four.WallclockPPS,
		WallclockSpeedX:   result.WallclockSpeedX,
		FourPipeFramesPPS: four.FramesPPS,
	})
	if len(result.Trajectory) > maxTrajectory {
		result.Trajectory = result.Trajectory[len(result.Trajectory)-maxTrajectory:]
	}

	rep := &Report{ID: "pipes", Title: "Multi-pipe aggregate throughput (1 vs 4 pipes)"}
	rep.Printf("%-7s %12s %14s %16s %14s  %s", "pipes", "packets", "modeled pps", "wallclock pps", "frames pps", "per-pipe packets")
	for _, c := range result.Configs {
		rep.Printf("%-7d %12d %14.3g %16.3g %14.3g  %v", c.Pipes, c.Packets, c.ModeledPPS, c.WallclockPPS, c.FramesPPS, c.PipePackets)
	}
	rep.Printf("modeled speedup  %.2fx (line-rate model; shard balance bound)", result.ModeledSpeedup)
	rep.Printf("wallclock speedup %.2fx (steady-state batch path on this host — gated)", result.WallclockSpeedX)
	for _, pt := range result.Trajectory {
		rep.Printf("trajectory %-28s scale %-6g 1-pipe %10.3g  4-pipe %10.3g  speedup %.2fx",
			pt.When, pt.Scale, pt.OnePipePPS, pt.FourPipePPS, pt.WallclockSpeedX)
	}

	art, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("pipes bench: %w", err)
	}
	rep.ArtifactName = pipesArtifactName
	rep.Artifact = append(art, '\n')
	if len(metrics.Configs) > 0 {
		m, err := json.MarshalIndent(metrics, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("pipes bench metrics: %w", err)
		}
		rep.MetricsName = "METRICS_pipes.json"
		rep.Metrics = append(m, '\n')
	}
	return rep, nil
}
