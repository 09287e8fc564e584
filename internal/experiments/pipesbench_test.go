package experiments

import (
	"encoding/json"
	"testing"
)

// TestPipesBenchShape asserts the multi-pipe acceptance claim: a 4-pipe
// chip's modeled aggregate throughput is at least 2x a single pipe's on
// the same workload, bounded only by shard balance, and the JSON artifact
// round-trips.
func TestPipesBenchShape(t *testing.T) {
	rep, err := PipesBench(testScale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ArtifactName != "BENCH_pipes.json" || len(rep.Artifact) == 0 {
		t.Fatalf("missing artifact: %q (%d bytes)", rep.ArtifactName, len(rep.Artifact))
	}
	var res PipesBenchResult
	if err := json.Unmarshal(rep.Artifact, &res); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(res.Configs) != 2 || res.Configs[0].Pipes != 1 || res.Configs[1].Pipes != 4 {
		t.Fatalf("configs = %+v, want pipes 1 and 4", res.Configs)
	}
	one, four := res.Configs[0], res.Configs[1]
	if one.Packets != four.Packets || one.Packets == 0 {
		t.Fatalf("workloads differ: %d vs %d packets", one.Packets, four.Packets)
	}
	if res.ModeledSpeedup < 2 {
		t.Fatalf("modeled speedup = %.2fx, want >= 2x", res.ModeledSpeedup)
	}
	// The shard must actually spread: every pipe sees traffic, none more
	// than half of it.
	if len(four.PipePackets) != 4 {
		t.Fatalf("pipe_packets = %v", four.PipePackets)
	}
	for i, n := range four.PipePackets {
		if n == 0 || n > four.Packets/2 {
			t.Fatalf("pipe %d carries %d of %d packets — shard skewed", i, n, four.Packets)
		}
	}
	if one.Connections != four.Connections || one.Connections == 0 {
		t.Fatalf("tracked connections differ: %d vs %d", one.Connections, four.Connections)
	}
}

// TestGatePipes pins the perf-gate policy: >30% ratio regression against
// the latest same-scale point fails, anything else — improvements,
// different scales, missing history — passes.
func TestGatePipes(t *testing.T) {
	mk := func(pts ...PipesTrendPoint) PipesBenchResult {
		return PipesBenchResult{Trajectory: pts}
	}
	pt := func(scale, speedup float64) PipesTrendPoint {
		return PipesTrendPoint{When: "test", Scale: scale, WallclockSpeedX: speedup}
	}
	if err := GatePipes(mk()); err != nil {
		t.Fatalf("empty trajectory: %v", err)
	}
	if err := GatePipes(mk(pt(1, 2.0))); err != nil {
		t.Fatalf("first recorded run: %v", err)
	}
	if err := GatePipes(mk(pt(1, 2.0), pt(1, 1.5))); err != nil {
		t.Fatalf("25%% drop must pass: %v", err)
	}
	if err := GatePipes(mk(pt(1, 2.0), pt(1, 1.3))); err == nil {
		t.Fatal("35% drop must fail the gate")
	}
	if err := GatePipes(mk(pt(1, 2.0), pt(0.05, 0.5))); err != nil {
		t.Fatalf("different scale has no baseline, must pass: %v", err)
	}
	// The comparison picks the latest point at the matching scale, skipping
	// interleaved runs at other scales.
	if err := GatePipes(mk(pt(0.05, 1.0), pt(1, 2.0), pt(0.05, 1.1))); err != nil {
		t.Fatalf("same-scale comparison across interleaved scales: %v", err)
	}
	// 2.0 against a 3.0 baseline is a 33% drop: the gate must fail even
	// with a different-scale run recorded in between.
	if err := GatePipes(mk(pt(1, 3.0), pt(0.05, 1.0), pt(1, 2.0))); err == nil {
		t.Fatal("33% drop across interleaved scales must fail the gate")
	}
}
