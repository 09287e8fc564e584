package telemetry

import (
	"encoding/json"
	"math"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"repro/internal/simtime"
)

func testVIP() VIPKey {
	return VIPKey{Addr: netip.MustParseAddr("10.0.0.1"), Port: 80, Proto: 6}
}

func TestVIPKeyString(t *testing.T) {
	if got := testVIP().String(); got != "10.0.0.1:80/tcp" {
		t.Fatalf("VIPKey.String() = %q", got)
	}
	udp := VIPKey{Addr: netip.MustParseAddr("10.0.0.2"), Port: 53, Proto: 17}
	if got := udp.String(); got != "10.0.0.2:53/udp" {
		t.Fatalf("VIPKey.String() = %q", got)
	}
}

func TestHistogramBucketRuleMatchesStats(t *testing.T) {
	bounds := []float64{1, 2, 4}
	h := NewHistogram(bounds)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// v <= bound rule: bucket0 gets {0.5, 1}, bucket1 {1.5, 2},
	// bucket2 {3, 4}, overflow {100}.
	want := []int64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if got := s.Sum; math.Abs(got-112) > 1e-9 {
		t.Fatalf("Sum = %v, want 112", got)
	}
	// Round-trip into the stats toolkit.
	sh := s.Histogram()
	if sh.Total() != 7 || sh.Bucket(3) != 1 {
		t.Fatalf("stats round-trip: total=%d overflow=%d", sh.Total(), sh.Bucket(3))
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %v, want 1 (bucket upper bound)", q)
	}
	if q := s.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %v, want 100", q)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("SetMax kept %d, want 5", got)
	}
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("SetMax kept %d, want 9", got)
	}
}

func TestRegistryVerdictAndVIPSeries(t *testing.T) {
	r := NewRegistry()
	vs := r.RegisterVIP(0, testVIP())
	if vs == nil {
		t.Fatal("RegisterVIP returned nil")
	}
	if again := r.RegisterVIP(0, testVIP()); again != vs {
		t.Fatal("re-registering the same (pipe, VIP) must return the same series")
	}
	other := r.RegisterVIP(1, testVIP())
	if other == vs {
		t.Fatal("different pipes must get distinct series")
	}

	r.Trace(Event{Kind: KindVerdict, Now: 10, Pipe: 0, VIP: vs, Verdict: VerdictForward, WireLen: 100, ConnHit: true})
	r.Trace(Event{Kind: KindVerdict, Now: 20, Pipe: 0, VIP: vs, Verdict: VerdictForward, WireLen: 60, Learned: true})
	r.Trace(Event{Kind: KindVerdict, Now: 30, Pipe: 1, VIP: other, Verdict: VerdictNoBackend, WireLen: 60})
	r.Trace(Event{Kind: KindVerdict, Now: 40, Pipe: 0, Verdict: VerdictNoVIP, WireLen: 40}) // nil VIP

	s := r.Snapshot(40)
	agg := s.VIPs["10.0.0.1:80/tcp"]
	if agg.Packets != 3 || agg.Bytes != 220 || agg.ConnHits != 1 || agg.Learns != 1 || agg.NoBackend != 1 {
		t.Fatalf("VIP aggregate = %+v", agg)
	}
	if len(s.Pipes) != 2 {
		t.Fatalf("expected 2 pipes, got %d", len(s.Pipes))
	}
	if s.Pipes[0].Packets != 3 || s.Pipes[1].Packets != 1 {
		t.Fatalf("pipe packets = %d/%d", s.Pipes[0].Packets, s.Pipes[1].Packets)
	}
	if s.Pipes[0].Verdicts["forward"] != 2 || s.Pipes[0].Verdicts["no_vip"] != 1 {
		t.Fatalf("pipe0 verdicts = %v", s.Pipes[0].Verdicts)
	}
}

func TestRegistryInsertPendingWindow(t *testing.T) {
	r := NewRegistry()
	vs := r.RegisterVIP(0, testVIP())
	ms := simtime.Duration(1e6)

	r.Trace(Event{Kind: KindInsert, Now: simtime.Time(5 * ms), VIP: vs, Insert: InsertLearned,
		Outcome: InsertOK, ArrivedAt: simtime.Time(2 * ms), QueueDepth: 3})
	r.Trace(Event{Kind: KindInsert, Now: simtime.Time(9 * ms), VIP: vs, Insert: InsertDigestFP,
		Outcome: InsertOK, QueueDepth: 1})
	r.Trace(Event{Kind: KindInsert, Now: simtime.Time(9 * ms), VIP: vs, Insert: InsertBloomFP,
		Outcome: InsertOK, QueueDepth: 0})
	r.Trace(Event{Kind: KindInsert, Now: simtime.Time(10 * ms), VIP: vs, Insert: InsertLearned,
		Outcome: InsertDuplicate, ArrivedAt: simtime.Time(1 * ms), QueueDepth: 0})
	r.Trace(Event{Kind: KindInsert, Now: simtime.Time(11 * ms), VIP: vs, Insert: InsertLearned,
		Outcome: InsertOverflow, ArrivedAt: simtime.Time(1 * ms), QueueDepth: 0})

	s := r.Snapshot(simtime.Time(11 * ms))
	if got := s.Counters[MetricInsertsLearned]; got != 1 {
		t.Fatalf("learned inserts = %d, want 1", got)
	}
	if got := s.Counters[MetricDigestCollisions]; got != 1 {
		t.Fatalf("digest collisions = %d, want 1", got)
	}
	if got := s.Counters[MetricBloomFPs]; got != 1 {
		t.Fatalf("bloom FPs = %d, want 1", got)
	}
	if got := s.Counters[MetricInsertDuplicates]; got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
	if got := s.Counters[MetricInsertOverflows]; got != 1 {
		t.Fatalf("overflows = %d, want 1", got)
	}
	pw := s.Histograms[MetricPendingWindow]
	if pw.Count != 1 {
		t.Fatalf("pending-window count = %d, want 1 (only learned OK inserts)", pw.Count)
	}
	if math.Abs(pw.Sum-0.003) > 1e-12 {
		t.Fatalf("pending-window sum = %v, want 0.003s", pw.Sum)
	}
	// Conns counts committed inserts only (3 OK, 1 dup, 1 overflow).
	if got := vs.Conns.Load(); got != 3 {
		t.Fatalf("VIP conns = %d, want 3", got)
	}
	if got := s.Gauges[MetricInsertQueuePeak]; got != 3 {
		t.Fatalf("queue peak = %d, want 3", got)
	}
}

func TestRegistryUpdateSteps(t *testing.T) {
	r := NewRegistry()
	us := simtime.Duration(1e3)
	req := simtime.Time(100 * us)
	exec := simtime.Time(400 * us)
	done := simtime.Time(900 * us)

	r.Trace(Event{Kind: KindUpdateStep, Now: req, UpdateStep: StepRequested})
	r.Trace(Event{Kind: KindUpdateStep, Now: req, UpdateStep: StepRecording, ReqAt: req})
	r.Trace(Event{Kind: KindUpdateStep, Now: exec, UpdateStep: StepTransition, ReqAt: req, ExecAt: exec})
	r.Trace(Event{Kind: KindUpdateStep, Now: done, UpdateStep: StepDone, ReqAt: req, ExecAt: exec})

	s := r.Snapshot(done)
	if got := s.Counters[MetricUpdatesRequested]; got != 1 {
		t.Fatalf("requested = %d", got)
	}
	if got := s.Counters[MetricUpdatesCompleted]; got != 1 {
		t.Fatalf("completed = %d", got)
	}
	rec := s.Histograms[MetricUpdateRecord]
	if rec.Count != 1 || math.Abs(rec.Sum-300e-6) > 1e-12 {
		t.Fatalf("record hist count=%d sum=%v, want 1/300µs", rec.Count, rec.Sum)
	}
	tr := s.Histograms[MetricUpdateTransition]
	if tr.Count != 1 || math.Abs(tr.Sum-500e-6) > 1e-12 {
		t.Fatalf("transition hist count=%d sum=%v, want 1/500µs", tr.Count, tr.Sum)
	}
	tot := s.Histograms[MetricUpdateTotal]
	if tot.Count != 1 || math.Abs(tot.Sum-800e-6) > 1e-12 {
		t.Fatalf("total hist count=%d sum=%v, want 1/800µs", tot.Count, tot.Sum)
	}
}

func TestRegistryLearnFlushAndMeter(t *testing.T) {
	r := NewRegistry()
	vs := r.RegisterVIP(0, testVIP())
	r.Trace(Event{Kind: KindLearnFlush, Now: 1, Batch: 10, Full: true})
	r.Trace(Event{Kind: KindLearnFlush, Now: 2, Batch: 3})
	r.Trace(Event{Kind: KindMeterDrop, Now: 3, VIP: vs, WireLen: 1500})

	s := r.Snapshot(3)
	if got := s.Counters[MetricLearnFlushes]; got != 2 {
		t.Fatalf("flushes = %d", got)
	}
	if got := s.Counters[MetricLearnFullFlushes]; got != 1 {
		t.Fatalf("full flushes = %d", got)
	}
	if got := s.Histograms[MetricLearnBatch]; got.Count != 2 || got.Sum != 13 {
		t.Fatalf("batch hist = %+v", got)
	}
	if got := s.Counters[MetricMeterDropBytes]; got != 1500 {
		t.Fatalf("meter bytes = %d", got)
	}
	if vs.MeterDrops.Load() != 1 || vs.MeterBytes.Load() != 1500 {
		t.Fatalf("VIP meter series = %d/%d", vs.MeterDrops.Load(), vs.MeterBytes.Load())
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	vs := r.RegisterVIP(0, testVIP())
	r.Trace(Event{Kind: KindVerdict, Now: 100, VIP: vs, Verdict: VerdictForward, WireLen: 50})
	prev := r.Snapshot(100)
	r.Trace(Event{Kind: KindVerdict, Now: 200, VIP: vs, Verdict: VerdictForward, WireLen: 70})
	r.Trace(Event{Kind: KindInsert, Now: 200, VIP: vs, Insert: InsertLearned, Outcome: InsertOK, ArrivedAt: 150})
	cur := r.Snapshot(200)

	d := cur.Delta(prev)
	if d.Elapsed != 100 {
		t.Fatalf("Elapsed = %d", d.Elapsed)
	}
	if got := d.Counters[MetricInsertsLearned]; got != 1 {
		t.Fatalf("delta learned = %d", got)
	}
	dv := d.VIPs["10.0.0.1:80/tcp"]
	if dv.Packets != 1 || dv.Bytes != 70 {
		t.Fatalf("delta VIP = %+v", dv)
	}
	if len(d.Pipes) != 1 || d.Pipes[0].Packets != 1 {
		t.Fatalf("delta pipes = %+v", d.Pipes)
	}
	if d.Histograms[MetricPendingWindow].Count != 1 {
		t.Fatalf("delta pending hist = %+v", d.Histograms[MetricPendingWindow])
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	vs := r.RegisterVIP(0, testVIP())
	r.Trace(Event{Kind: KindVerdict, Now: 1, VIP: vs, Verdict: VerdictForward, WireLen: 64})
	s := r.Snapshot(1)
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[MetricInsertsLearned] != s.Counters[MetricInsertsLearned] {
		t.Fatal("counter lost in JSON round trip")
	}
	if back.VIPs["10.0.0.1:80/tcp"].Packets != 1 {
		t.Fatalf("VIP series lost in JSON round trip: %+v", back.VIPs)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	vs := r.RegisterVIP(0, testVIP())
	r.Trace(Event{Kind: KindVerdict, Now: 1e9, VIP: vs, Verdict: VerdictForward, WireLen: 64})
	r.Trace(Event{Kind: KindInsert, Now: 2e9, VIP: vs, Insert: InsertLearned, Outcome: InsertOK, ArrivedAt: 1e9})
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot(2e9)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE " + MetricPendingWindow + " histogram",
		MetricPendingWindow + "_bucket{le=\"+Inf\"} 1",
		MetricPendingWindow + "_count 1",
		MetricInsertsLearned + " 1",
		`silkroad_vip_packets_total{vip="10.0.0.1:80/tcp"} 1`,
		`silkroad_pipe_verdicts_total{pipe="0",verdict="forward"} 1`,
		"silkroad_virtual_time_seconds 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
	// Deterministic output.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, r.Snapshot(2e9)); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("prometheus output is not deterministic")
	}
}

func TestRegistryConcurrentHooks(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			vs := r.RegisterVIP(w%4, testVIP())
			for i := 0; i < perWorker; i++ {
				r.Trace(Event{Kind: KindVerdict, Now: simtime.Time(i), Pipe: w % 4, VIP: vs,
					Verdict: VerdictForward, WireLen: 64})
				r.Trace(Event{Kind: KindInsert, Now: simtime.Time(i + 10), Pipe: w % 4, VIP: vs,
					Insert: InsertLearned, Outcome: InsertOK, ArrivedAt: simtime.Time(i)})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		// Scrape concurrently with the event storm.
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			s := r.Snapshot(0)
			if got := s.Counters[MetricInsertsLearned]; got < last {
				panic("counter went backwards")
			} else {
				last = got
			}
		}
	}()
	wg.Wait()
	close(done)
	s := r.Snapshot(0)
	if got := s.Counters[MetricInsertsLearned]; got != workers*perWorker {
		t.Fatalf("learned inserts = %d, want %d", got, workers*perWorker)
	}
	var total uint64
	for _, p := range s.Pipes {
		total += p.Packets
	}
	if total != workers*perWorker {
		t.Fatalf("pipe packets = %d, want %d", total, workers*perWorker)
	}
	if s.Histograms[MetricPendingWindow].Count != workers*perWorker {
		t.Fatalf("pending hist count = %d", s.Histograms[MetricPendingWindow].Count)
	}
}

// TestEveryKindFolds checks the registry folds the zero event of every
// kind: each kind's table lookups stay in range for its zero payload.
func TestEveryKindFolds(t *testing.T) {
	r := NewRegistry()
	for k := KindVerdict; k <= KindHandoff; k++ {
		r.Trace(Event{Kind: k})
	}
	s := r.Snapshot(0)
	if s.Counters[MetricInsertsLearned] != 1 || s.Counters[MetricReconcileRounds] != 1 ||
		s.Counters[MetricFaultsInjected] != 1 || s.Pipes[0].Packets != 1 {
		t.Fatalf("zero events folded into %+v", s.Counters)
	}
}
