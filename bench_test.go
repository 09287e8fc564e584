package silkroad_test

// Benchmark targets, one per table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for measured
// output). Each benchmark regenerates its table/figure through the same
// code path as cmd/silkroad-bench, at a reduced scale so `go test -bench`
// completes in minutes. Plus microbenchmarks of the hot paths whose
// line-rate feasibility the paper asserts.
//
// This file is an external test package (and dot-imports the facade) so
// it can use internal/experiments: the experiments package imports the
// root facade for its soaks, which an in-package test file would turn
// into an import cycle.

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"

	. "repro"
	"repro/internal/experiments"
	"repro/internal/netproto"
)

// benchScale keeps simulation-backed figures short under -bench.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(benchScale, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + rep.String())
		}
	}
}

func BenchmarkTable1SRAMTrend(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkTable2Resources(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkFig2UpdateFrequency(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig3RootCauses(b *testing.B)        { runExperiment(b, "fig3") }
func BenchmarkFig4Downtime(b *testing.B)          { runExperiment(b, "fig4") }
func BenchmarkFig5Dilemma(b *testing.B)           { runExperiment(b, "fig5") }
func BenchmarkFig6ActiveConns(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig8NewConns(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig12SRAMUsage(b *testing.B)        { runExperiment(b, "fig12") }
func BenchmarkFig13SLBReplacement(b *testing.B)   { runExperiment(b, "fig13") }
func BenchmarkFig14MemorySaving(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15VersionReuse(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16PCCUpdateFreq(b *testing.B)    { runExperiment(b, "fig16") }
func BenchmarkFig17PCCArrivalRate(b *testing.B)   { runExperiment(b, "fig17") }
func BenchmarkFig18TransitTableSize(b *testing.B) { runExperiment(b, "fig18") }
func BenchmarkSec52Prototype(b *testing.B)        { runExperiment(b, "sec52") }
func BenchmarkChaosSoak(b *testing.B)             { runExperiment(b, "chaos") }

// --- hot-path microbenchmarks -------------------------------------------

// BenchmarkPipelineHit measures the per-packet cost of the full public
// path for an established connection (ConnTable hit).
func BenchmarkPipelineHit(b *testing.B) {
	sw, err := NewSwitch(Defaults(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	if err := sw.AddVIP(0, vip, Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20", "10.0.0.4:20")); err != nil {
		b.Fatal(err)
	}
	pkt := &Packet{
		Tuple: FiveTuple{
			Src: AddrPort("1.2.3.4:1234").Addr(), Dst: vip.Addr,
			SrcPort: 1234, DstPort: 80, Proto: TCP,
		},
		TCPFlags: netproto.FlagSYN,
	}
	var f Frame
	pkt.Frame(&f)
	sw.ProcessFrame(0, &f)
	sw.AdvanceTo(Time(5 * Millisecond))
	pkt.TCPFlags = netproto.FlagACK
	pkt.Frame(&f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessFrame(Time(i)+Time(10*Millisecond), &f)
	}
}

// BenchmarkPipelineNewConnections measures the miss path including
// learning, CPU insertion and connection teardown at steady state.
func BenchmarkPipelineNewConnections(b *testing.B) {
	sw, err := NewSwitch(Defaults(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	sw.AddVIP(0, vip, Pool("10.0.0.1:20", "10.0.0.2:20"))
	b.ReportAllocs()
	b.ResetTimer()
	now := Time(0)
	var f Frame
	for i := 0; i < b.N; i++ {
		pkt := &Packet{
			Tuple: FiveTuple{
				Src: clientAddr(i), Dst: vip.Addr,
				SrcPort: uint16(i), DstPort: 80, Proto: TCP,
			},
			TCPFlags: netproto.FlagSYN,
		}
		pkt.Frame(&f)
		sw.ProcessFrame(now, &f)
		now = now.Add(5 * Microsecond)
		if i%4096 == 0 {
			// Keep the table from filling: end the oldest connections.
			sw.AdvanceTo(now)
		}
		if i%8192 == 8191 {
			for j := i - 8191; j <= i; j++ {
				t := FiveTuple{Src: clientAddr(j), Dst: vip.Addr, SrcPort: uint16(j), DstPort: 80, Proto: TCP}
				sw.EndConnection(now, t)
			}
		}
	}
}

// BenchmarkForwardRaw measures the complete raw-packet path: decode,
// balance, rewrite, checksums.
func BenchmarkForwardRaw(b *testing.B) {
	sw, err := NewSwitch(Defaults(100000))
	if err != nil {
		b.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	sw.AddVIP(0, vip, Pool("10.0.0.1:20", "10.0.0.2:20"))
	p := &Packet{
		Tuple:    FiveTuple{Src: clientAddr(1), Dst: vip.Addr, SrcPort: 99, DstPort: 80, Proto: TCP},
		TCPFlags: netproto.FlagACK,
		Payload:  make([]byte, 64),
	}
	raw, err := p.Marshal(nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, len(raw))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, raw)
		if _, err := sw.Forward(Time(i), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func clientAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{1, byte(i >> 16), byte(i >> 8), byte(i)})
}

// frameBenchSwitch primes a switch with established connections and
// returns the pre-parsed wire frames for them (the tunnel's steady-state
// currency: parse once, process many). arm, when non-nil, edits the
// switch's config first (to attach tracers).
func frameBenchSwitch(tb testing.TB, conns int, arm func(*Config)) (*Switch, []Frame) {
	tb.Helper()
	cfg := Defaults(conns * 4)
	if arm != nil {
		arm(&cfg)
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	if err := sw.AddVIP(0, vip, Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20", "10.0.0.4:20")); err != nil {
		tb.Fatal(err)
	}
	frames := make([]Frame, conns)
	for i := range frames {
		p := &Packet{
			Tuple: FiveTuple{
				Src: clientAddr(i), Dst: vip.Addr,
				SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: TCP,
			},
			TCPFlags: netproto.FlagSYN,
			Payload:  make([]byte, 64),
		}
		raw, err := p.Marshal(nil)
		if err != nil {
			tb.Fatal(err)
		}
		if err := ParseFrame(raw, &frames[i]); err != nil {
			tb.Fatal(err)
		}
	}
	// Open every connection and let the insertions land, so the measured
	// region is pure ConnTable hits.
	sw.ProcessFramesInto(0, frames, make([]Result, len(frames)))
	sw.AdvanceTo(Time(5 * Millisecond))
	for i := range frames {
		p := &Packet{
			Tuple:    frames[i].Tuple,
			TCPFlags: netproto.FlagACK,
			Payload:  make([]byte, 64),
		}
		raw, err := p.Marshal(nil)
		if err != nil {
			tb.Fatal(err)
		}
		if err := ParseFrame(raw, &frames[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return sw, frames
}

// BenchmarkProcessFrames measures the wire-native batch path at steady
// state: pre-parsed frames of established connections through
// ProcessFramesInto. The acceptance bar is 0 allocs/packet.
func BenchmarkProcessFrames(b *testing.B) {
	const conns = 2048
	sw, frames := frameBenchSwitch(b, conns, nil)
	results := make([]Result, conns)
	var wire int64
	for i := range frames {
		wire += int64(len(frames[i].Data))
	}
	b.SetBytes(wire / int64(conns))
	b.ReportAllocs()
	b.ResetTimer()
	now := Time(10 * Millisecond)
	for i := 0; i < b.N; i += conns {
		sw.ProcessFramesInto(now, frames, results)
		now = now.Add(Microsecond)
	}
}

// BenchmarkProcessFrame measures single frames through ProcessFrame at
// steady state (established connections, ConnTable hits) on 1, 2 and 4
// pipes, from one caller ("serial") and from GOMAXPROCS callers at once
// ("parallel"), each walking the frames from its own offset.
func BenchmarkProcessFrame(b *testing.B) {
	const conns = 2048
	for _, pipes := range []int{1, 2, 4} {
		sw, frames := frameBenchSwitch(b, conns, func(c *Config) { c.Pipes = pipes })
		b.Run(fmt.Sprintf("pipes=%d/serial", pipes), func(b *testing.B) {
			b.ReportAllocs()
			now := Time(10 * Millisecond)
			for i := 0; i < b.N; i++ {
				if i%conns == 0 {
					now = now.Add(Microsecond)
				}
				sw.ProcessFrame(now, &frames[i%conns])
			}
		})
		b.Run(fmt.Sprintf("pipes=%d/parallel", pipes), func(b *testing.B) {
			b.ReportAllocs()
			var callers atomic.Int32
			b.RunParallel(func(pb *testing.PB) {
				i := int(callers.Add(1)) * 521
				now := Time(10 * Millisecond)
				for pb.Next() {
					if i%conns == 0 {
						now = now.Add(Microsecond)
					}
					sw.ProcessFrame(now, &frames[i%conns])
					i++
				}
			})
		})
	}
}

// TestProcessFramesZeroAlloc enforces the acceptance criterion directly:
// the steady-state frames batch path performs zero allocations per batch,
// untraced and with armed tracers — a metrics registry, and a flight
// recorder wrapping one with no flow armed and sampling off — since every
// event travels by value. Frames sent alone through ProcessFrame, each a
// one-frame batch, allocate nothing either, on one pipe and on four.
func TestProcessFramesZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		arm    func(*Config)
		single bool // each frame alone through ProcessFrame, a one-frame batch
	}{
		{"untraced", nil, false},
		{"telemetry", func(c *Config) { c.Telemetry = NewTelemetry() }, false},
		{"recorder", func(c *Config) {
			c.Telemetry = NewTelemetry()
			c.FlightRecorder = NewFlightRecorder(FlightRecorderConfig{})
		}, false},
		{"frame_1pipe", nil, true},
		{"frame_4pipes", func(c *Config) { c.Pipes = 4 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const conns = 512
			sw, frames := frameBenchSwitch(t, conns, tc.arm)
			results := make([]Result, conns)
			now := Time(10 * Millisecond)
			sw.ProcessFramesInto(now, frames, results) // warm any lazy state
			allocs := testing.AllocsPerRun(50, func() {
				now = now.Add(Microsecond)
				if !tc.single {
					sw.ProcessFramesInto(now, frames, results)
					return
				}
				for i := range frames {
					results[i] = sw.ProcessFrame(now, &frames[i])
				}
			})
			if allocs != 0 {
				t.Fatalf("allocated %.1f times per %d frames, want 0", allocs, conns)
			}
			for i := range results {
				if results[i].Verdict != VerdictForward || !results[i].ConnHit {
					t.Fatalf("packet %d not a steady-state hit: %+v", i, results[i])
				}
			}
		})
	}
}
