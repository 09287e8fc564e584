//go:build perfgate

// The SLO evaluator's overhead gate judges wall-clock time, so it stays out
// of go test ./...; run it with go test -tags perfgate -run
// TestSLOArmedOverheadGate .

package silkroad

import (
	"sort"
	"testing"
	"time"

	"repro/internal/netproto"
)

// sloBenchSwitch builds the overhead workload's switch: four pipes, a
// telemetry registry (both sides pay for instrumentation — the comparison
// isolates the evaluator), and optionally an armed SLO evaluator ticking
// every virtual millisecond.
func sloBenchSwitch(tb testing.TB, armed bool) *Switch {
	tb.Helper()
	cfg := Defaults(1_000_000)
	cfg.Pipes = 4
	cfg.Clock = NewManualClock(0)
	cfg.Telemetry = NewTelemetry()
	if armed {
		// Denser than the production 1s default so the evaluator ticks
		// repeatedly inside the short measured region.
		cfg.SLO = &SLOConfig{Interval: 100 * Microsecond}
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		tb.Fatal(err)
	}
	return sw
}

const (
	sloBenchConns = 8192
	sloBenchBatch = 256
)

// sloBenchPrime opens the established working set and drains insertions.
func sloBenchPrime(sw *Switch) {
	results := make([]Result, sloBenchBatch)
	for base := 0; base < sloBenchConns; base += sloBenchBatch {
		sw.ProcessFramesInto(0, clientFrames(base, sloBenchBatch, netproto.FlagSYN), results)
	}
	sw.AdvanceTo(Time(10 * Millisecond))
}

// sloBenchMeasure runs established-traffic passes of acks, one frame per
// connection, and returns wallclock packets per second. Virtual time steps a microsecond per batch with a
// per-batch AdvanceTo (the scheduler drives background sources, the SLO
// evaluator among them), and the cursor threads across repetitions so
// virtual time keeps moving forward.
func sloBenchMeasure(sw *Switch, acks []Frame, passes int, now *Time) float64 {
	results := make([]Result, sloBenchBatch)
	before := sw.Stats().Dataplane.Packets
	start := time.Now()
	for p := 0; p < passes; p++ {
		for base := 0; base < sloBenchConns; base += sloBenchBatch {
			sw.ProcessFramesInto(*now, acks[base:base+sloBenchBatch], results)
			*now = now.Add(Microsecond)
			sw.AdvanceTo(*now)
		}
	}
	elapsed := time.Since(start).Seconds()
	done := sw.Stats().Dataplane.Packets - before
	if elapsed <= 0 || done == 0 {
		return 0
	}
	return float64(done) / elapsed
}

// TestSLOArmedOverheadGate is the issue's acceptance bar: arming the SLO
// evaluator costs the packet path under 2%. One wall-clock rate a side
// cannot resolve 2% on a shared host, so the gate judges the way the
// benchmark judges a claim. Armed and disarmed switches run the identical
// workload in ten pairs, alternating which side goes first; within a pair
// the sides take turns at four-pass units (every unit spans an evaluator
// tick) and each keeps its fastest unit — interference only ever slows a
// unit down. The armed side is found slower only if it loses at least nine
// of the ten pairs and the median of the paired ratios is below 0.98: host
// noise lands on either side of a pair alike, a real cost shows in nearly
// every one.
func TestSLOArmedOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wallclock gate; skipped with -short")
	}
	const disarmed, armed = 0, 1
	var sides [2]struct {
		sw  *Switch
		now Time
	}
	for i := range sides {
		sides[i].sw, sides[i].now = sloBenchSwitch(t, i == armed), Time(20*Millisecond)
		defer sides[i].sw.Close()
		sloBenchPrime(sides[i].sw)
	}

	const pairs, units, passes = 10, 4, 4
	acks := clientFrames(0, sloBenchConns, netproto.FlagACK)
	evalsBefore := sides[armed].sw.SLO().Report().Evals
	ratios := make([]float64, 0, pairs)
	lost := 0
	for r := 0; r < pairs; r++ {
		var best [2]float64
		for u := 0; u < 2*units; u++ {
			i := (r + u) % 2 // pair r opens with side r%2
			best[i] = max(best[i], sloBenchMeasure(sides[i].sw, acks, passes, &sides[i].now))
		}
		if best[disarmed] == 0 || best[armed] == 0 {
			t.Fatalf("no throughput measured (off=%v on=%v)", best[disarmed], best[armed])
		}
		if best[armed] < best[disarmed] {
			lost++
		}
		ratios = append(ratios, best[armed]/best[disarmed])
	}
	sort.Float64s(ratios)
	median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	t.Logf("armed/disarmed over %d pairs: median %.4f, range %.4f .. %.4f, armed slower in %d",
		pairs, median, ratios[0], ratios[pairs-1], lost)
	if evals := sides[armed].sw.SLO().Report().Evals; evals <= evalsBefore {
		t.Fatal("armed evaluator never ticked inside the measured region")
	}
	if lost >= pairs*9/10 && median < 0.98 {
		t.Errorf("armed SLO evaluator costs %.1f%% throughput (slower in %d of %d pairs), want < 2%%",
			100*(1-median), lost, pairs)
	}
}

// BenchmarkSLOOverhead reports the same comparison as standard Go
// benchmarks for manual runs.
func BenchmarkSLOOverhead(b *testing.B) {
	for _, side := range []struct {
		name  string
		armed bool
	}{{"disarmed", false}, {"armed", true}} {
		b.Run(side.name, func(b *testing.B) {
			sw := sloBenchSwitch(b, side.armed)
			defer sw.Close()
			sloBenchPrime(sw)
			acks := clientFrames(0, sloBenchConns, netproto.FlagACK)
			results := make([]Result, sloBenchBatch)
			now := Time(20 * Millisecond)
			b.ReportAllocs()
			b.SetBytes(sloBenchBatch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := (i * sloBenchBatch) % sloBenchConns
				sw.ProcessFramesInto(now, acks[base:base+sloBenchBatch], results)
				now = now.Add(Microsecond)
				sw.AdvanceTo(now)
			}
		})
	}
}
