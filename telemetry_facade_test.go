package silkroad

// Facade-level coverage for the telemetry subsystem and the API cleanup
// that shipped with it: sentinel errors under errors.Is, AddVIP options,
// symmetric per-pipe stats, and the registry scraped concurrently with
// multi-pipe traffic and pool updates (the -race target).

import (
	"errors"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netproto"
	"repro/internal/telemetry"
)

func TestForwardSentinelErrors(t *testing.T) {
	sw := newSwitch(t)
	metered := NewVIP("20.0.0.9", 80, TCP)
	if err := sw.AddVIP(0, metered, Pool("10.0.0.1:20"), WithMeter(1000)); err != nil {
		t.Fatal(err)
	}

	if _, err := sw.Forward(0, []byte{0x45, 0x00, 0x01}); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("truncated packet: err = %v, want ErrUndecodable", err)
	}

	stranger := clientPkt(1, netproto.FlagSYN)
	stranger.Tuple.Dst = netip.MustParseAddr("30.0.0.1")
	raw, err := stranger.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Forward(0, raw); !errors.Is(err, ErrNotVIP) {
		t.Fatalf("non-VIP destination: err = %v, want ErrNotVIP", err)
	}

	burst := clientPkt(2, 0)
	burst.Tuple.Dst = metered.Addr
	burst.Payload = make([]byte, 900)
	var meterErr error
	for i := 0; i < 50; i++ {
		raw, _ := burst.Marshal(nil)
		if _, err := sw.Forward(0, raw); err != nil {
			meterErr = err
		}
	}
	if !errors.Is(meterErr, ErrMeterDrop) {
		t.Fatalf("metered burst: err = %v, want ErrMeterDrop", meterErr)
	}

	// Empty the hardware pool row directly — the state Forward must report
	// as ErrNoBackend. Done last: it breaks the test VIP.
	if err := sw.Dataplane().WritePool(testVIP(), 0, nil); err != nil {
		t.Fatal(err)
	}
	raw, err = clientPkt(3, netproto.FlagSYN).Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Forward(0, raw); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("empty pool: err = %v, want ErrNoBackend", err)
	}
}

// TestAddVIPWithMeter checks both sides of the WithMeter option: a
// committed rate drops a burst far above it, and a rate of 0 leaves the VIP
// unmetered.
func TestAddVIPWithMeter(t *testing.T) {
	for _, rate := range []float64{1000, 0} {
		sw, err := NewSwitch(Defaults(1000))
		if err != nil {
			t.Fatal(err)
		}
		vip := NewVIP("20.0.0.9", 80, TCP)
		if err := sw.AddVIP(0, vip, Pool("10.0.0.1:20"), WithMeter(rate)); err != nil {
			t.Fatal(err)
		}
		pkt := clientPkt(1, 0)
		pkt.Tuple.Dst = vip.Addr
		pkt.Payload = make([]byte, 900)
		drops := 0
		for i := 0; i < 50; i++ {
			raw, _ := pkt.Marshal(nil)
			if _, err := sw.Forward(0, raw); err != nil {
				drops++
			}
		}
		if rate > 0 && drops < 40 || rate == 0 && drops != 0 {
			t.Fatalf("rate=%v: meter dropped %d of 50 burst packets", rate, drops)
		}
	}
}

// TestPerPipeSymmetric checks the per-pipe breakdown has the same shape on
// single- and multi-pipe switches, so callers need not branch on Engine().
func TestPerPipeSymmetric(t *testing.T) {
	for _, pipes := range []int{1, 4} {
		sw := newMultiSwitch(t, pipes)
		var pkts []*Packet
		for i := 0; i < 300; i++ {
			pkts = append(pkts, clientPkt(i, netproto.FlagSYN))
		}
		processBatch(sw, 0, pkts)
		sw.AdvanceTo(Time(Second))

		pp := sw.PerPipe()
		if len(pp) != pipes {
			t.Fatalf("pipes=%d: PerPipe() has %d entries", pipes, len(pp))
		}
		st := sw.Stats()
		var pktSum uint64
		var connSum int
		for i, p := range pp {
			if p.Pipe != i {
				t.Fatalf("pipes=%d: entry %d has Pipe=%d", pipes, i, p.Pipe)
			}
			pktSum += p.Packets
			connSum += p.Connections
		}
		if pktSum != st.Dataplane.Packets {
			t.Fatalf("pipes=%d: per-pipe packets sum %d != aggregate %d", pipes, pktSum, st.Dataplane.Packets)
		}
		if connSum != st.Connections {
			t.Fatalf("pipes=%d: per-pipe conns sum %d != aggregate %d", pipes, connSum, st.Connections)
		}
	}
}

// TestTelemetryConcurrentMultiPipe is the -race target: 4 pipes processing
// batches while another goroutine churns the DIP pool and a third scrapes
// Snapshot(), asserting counters never move backwards. At the end the
// registry must agree with the switch's own books: the pending-window
// histogram holds exactly one sample per learned insert, and learned +
// digest-FP + bloom-FP inserts equal the control plane's install count.
func TestTelemetryConcurrentMultiPipe(t *testing.T) {
	cfg := Defaults(200_000)
	cfg.Pipes = 4
	tel := NewTelemetry()
	cfg.Telemetry = tel
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Telemetry() != tel {
		t.Fatal("Telemetry() accessor lost the registry")
	}
	poolA := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")
	poolB := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.4:20")
	if err := sw.AddVIP(0, testVIP(), poolA); err != nil {
		t.Fatal(err)
	}

	const conns = 4000
	const batchSize = 256
	const passes = 3 // pass 0 is SYNs, the rest established traffic
	var nowNS atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		batch := make([]*Packet, 0, batchSize)
		total := conns * passes
		for p := 0; p < total; p += batchSize {
			batch = batch[:0]
			for i := p; i < p+batchSize && i < total; i++ {
				flags := netproto.FlagACK
				if i < conns {
					flags = netproto.FlagSYN
				}
				batch = append(batch, clientPkt(i%conns, flags))
			}
			now := Time(nowNS.Add(int64(10 * Microsecond)))
			processBatch(sw, now, batch)
			sw.AdvanceTo(now)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		// Churn the pool while traffic runs, yielding between updates so
		// the queue tracks the traffic instead of drowning it.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pool := poolA
			if i%2 == 1 {
				pool = poolB
			}
			if err := sw.UpdatePool(Time(nowNS.Load()), testVIP(), pool); err != nil {
				t.Errorf("UpdatePool: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev TelemetrySnapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tel.Snapshot(Time(nowNS.Load()))
			for name, v := range prev.Counters {
				if s.Counters[name] < v {
					t.Errorf("counter %s moved backwards: %d -> %d", name, v, s.Counters[name])
					return
				}
			}
			if ph, ok := prev.Histograms[telemetry.MetricPendingWindow]; ok {
				if s.Histograms[telemetry.MetricPendingWindow].Count < ph.Count {
					t.Error("pending-window histogram count moved backwards")
					return
				}
			}
			for i, p := range prev.Pipes {
				if i < len(s.Pipes) && s.Pipes[i].Packets < p.Packets {
					t.Errorf("pipe %d packets moved backwards", i)
					return
				}
			}
			prev = s
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	end := Time(nowNS.Load()).Add(Duration(Second))
	sw.AdvanceTo(end)
	snap := tel.Snapshot(end)
	st := sw.Stats()

	learned := snap.Counters[telemetry.MetricInsertsLearned]
	digestFP := snap.Counters[telemetry.MetricDigestCollisions]
	bloomFP := snap.Counters[telemetry.MetricBloomFPs]
	if pw := snap.Histograms[telemetry.MetricPendingWindow]; uint64(pw.Count) != learned {
		t.Fatalf("pending-window count %d != learned inserts %d", pw.Count, learned)
	}
	if got := learned + digestFP + bloomFP; got != st.Controlplane.Inserted {
		t.Fatalf("telemetry inserts %d (learned %d + digest %d + bloom %d) != control plane Inserted %d",
			got, learned, digestFP, bloomFP, st.Controlplane.Inserted)
	}
	if st.Connections != conns {
		t.Fatalf("Connections = %d, want %d", st.Connections, conns)
	}
	var pipePkts uint64
	for _, p := range snap.Pipes {
		pipePkts += p.Packets
	}
	if pipePkts != st.Dataplane.Packets {
		t.Fatalf("per-pipe telemetry packets %d != dataplane packets %d", pipePkts, st.Dataplane.Packets)
	}
	vip := snap.VIPs[testVIP().TelemetryKey().String()]
	if vip.Conns != st.Controlplane.Inserted {
		t.Fatalf("VIP conns %d != inserted %d", vip.Conns, st.Controlplane.Inserted)
	}
	if got := snap.Counters[telemetry.MetricUpdatesRequested]; got != st.Controlplane.UpdatesRequested {
		t.Fatalf("updates requested: telemetry %d != control plane %d", got, st.Controlplane.UpdatesRequested)
	}
}

// --- hot-path overhead benchmarks ---------------------------------------
//
// BenchmarkTracerBatch{Nil,Telemetry,Recorder} measure the same 4-pipe
// batch workload with no tracer, with the default registry, and with a
// flight recorder (one armed flow not in the batch) wrapping the registry;
// CI runs all three as a smoke against hot-path regressions (both attached
// variants must stay within a few percent of the nil tracer — the
// recorder's untraced fast path is one atomic load).

func benchTracerBatch(b *testing.B, mode string) {
	cfg := Defaults(1_000_000)
	cfg.Pipes = 4
	switch mode {
	case "nil":
	case "telemetry":
		cfg.Telemetry = NewTelemetry()
	case "recorder":
		cfg.Telemetry = NewTelemetry()
		cfg.FlightRecorder = NewFlightRecorder(FlightRecorderConfig{})
	default:
		b.Fatalf("unknown bench mode %q", mode)
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		b.Fatal(err)
	}
	if mode == "recorder" {
		// Arm a flow that never appears in the batch: the per-packet cost
		// under measurement is the armed!=0 filter lookup, not recording.
		if _, err := sw.Trace(clientPkt(1_000_000, 0).Tuple); err != nil {
			b.Fatal(err)
		}
	}
	const conns = 8192
	const batchSize = 256
	results := make([]Result, batchSize)
	sw.ProcessFramesInto(0, clientFrames(0, batchSize, netproto.FlagSYN), results)
	sw.AdvanceTo(Time(5 * Millisecond))
	acks := clientFrames(0, conns, netproto.FlagACK)
	now := Time(10 * Millisecond)
	b.ReportAllocs()
	b.SetBytes(batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * batchSize) % conns
		sw.ProcessFramesInto(now, acks[base:base+batchSize], results)
		now = now.Add(Microsecond)
	}
}

func BenchmarkTracerBatchNil(b *testing.B)       { benchTracerBatch(b, "nil") }
func BenchmarkTracerBatchTelemetry(b *testing.B) { benchTracerBatch(b, "telemetry") }
func BenchmarkTracerBatchRecorder(b *testing.B)  { benchTracerBatch(b, "recorder") }
