package flightrec

import (
	"net/netip"
	"sync"
	"testing"

	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func tuple(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("10.0.0.1"),
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Proto:   netproto.ProtoTCP,
	}
}

func verdictEvent(i int, t netproto.FiveTuple) telemetry.Event {
	return telemetry.Event{
		Kind: telemetry.KindVerdict, Now: simtime.Time(0).Add(simtime.Duration(i) * simtime.Millisecond), Pipe: i % 4, Tuple: t,
		Verdict: telemetry.VerdictForward, WireLen: 64,
		KeyHash: uint64(i), Digest: uint32(i), Version: 1, Stage: -1,
		Meter: telemetry.MeterNone,
	}
}

func TestArmedFlowRecorded(t *testing.T) {
	r := New(Config{})
	target := tuple(1)
	other := tuple(2)

	f := r.Arm(target)
	r.Trace(telemetry.Event{Kind: telemetry.KindVerdict, Tuple: target, Verdict: telemetry.VerdictForward,
		Stage: 2, Meter: telemetry.MeterNone, ConnHit: true, Version: 3,
		DIP: netip.MustParseAddrPort("20.0.0.1:80")})
	r.Trace(telemetry.Event{Kind: telemetry.KindVerdict, Tuple: other, Verdict: telemetry.VerdictForward,
		Stage: -1, Meter: telemetry.MeterNone})

	recs := f.Records()
	if len(recs) != 1 {
		t.Fatalf("want 1 record for armed flow, got %d", len(recs))
	}
	got := recs[0]
	if got.Kind != KindVerdict || !got.ConnHit || got.Stage != 2 ||
		got.Version != 3 || got.DIP != "20.0.0.1:80" || got.Verdict != "forward" {
		t.Fatalf("trace record mismatch: %+v", got)
	}
	if got.Meter != "" {
		t.Fatalf("unmetered flow should have empty meter, got %q", got.Meter)
	}
	if len(r.FlowTrace(other)) != 0 {
		t.Fatal("unarmed flow must not be recorded")
	}

	f.Stop()
	r.Trace(telemetry.Event{Kind: telemetry.KindVerdict, Tuple: target, Verdict: telemetry.VerdictForward,
		Stage: -1, Meter: telemetry.MeterNone})
	if len(r.FlowTrace(target)) != 1 {
		t.Fatal("disarmed flow must stop recording")
	}
}

func TestInsertRecordJoinsFlowTrace(t *testing.T) {
	r := New(Config{})
	target := tuple(7)
	r.Arm(target)
	r.Trace(telemetry.Event{Kind: telemetry.KindVerdict, Tuple: target, Verdict: telemetry.VerdictForward,
		Learned: true, Stage: -1, Meter: telemetry.MeterNone})
	r.Trace(telemetry.Event{Kind: telemetry.KindInsert, Tuple: target, Insert: telemetry.InsertLearned,
		Outcome: telemetry.InsertOK, Version: 2})

	recs := r.FlowTrace(target)
	if len(recs) != 2 {
		t.Fatalf("want verdict+insert, got %d records", len(recs))
	}
	if recs[0].Kind != KindVerdict || recs[1].Kind != KindInsert {
		t.Fatalf("record kinds out of order: %q, %q", recs[0].Kind, recs[1].Kind)
	}
	if recs[1].Verdict != "learned/ok" || recs[1].Version != 2 {
		t.Fatalf("insert record mismatch: %+v", recs[1])
	}
}

func TestSampling(t *testing.T) {
	r := New(Config{SampleEvery: 10})
	for i := 0; i < 100; i++ {
		r.Trace(verdictEvent(i, tuple(i)))
	}
	if got := len(r.Packets()); got != 10 {
		t.Fatalf("1-in-10 sampling over 100 packets: want 10 records, got %d", got)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(Config{PacketRing: 8, SampleEvery: 1})
	for i := 0; i < 20; i++ {
		r.Trace(verdictEvent(i, tuple(i)))
	}
	recs := r.Packets()
	if len(recs) != 8 {
		t.Fatalf("ring of 8 after 20 writes: want 8 records, got %d", len(recs))
	}
	for i, pr := range recs {
		if want := uint64(12 + i); pr.Seq != want {
			t.Fatalf("record %d: want seq %d, got %d", i, want, pr.Seq)
		}
	}
	if r.PacketSeq() != 20 {
		t.Fatalf("want 20 total records, got %d", r.PacketSeq())
	}
}

func TestJournalKinds(t *testing.T) {
	r := New(Config{})
	r.Trace(telemetry.Event{
		Kind: telemetry.KindUpdateStep,
		Now:  5, Pipe: 1, UpdateStep: telemetry.StepTransition,
		Key:         telemetry.VIPKey{Addr: netip.MustParseAddr("10.0.0.1"), Port: 80, Proto: 6},
		PrevVersion: 1, Version: 2,
		Before: []netip.AddrPort{netip.MustParseAddrPort("20.0.0.1:80")},
		After: []netip.AddrPort{netip.MustParseAddrPort("20.0.0.1:80"),
			netip.MustParseAddrPort("20.0.0.2:80")},
	})
	r.Trace(telemetry.Event{Kind: telemetry.KindCuckoo, Now: 6, CuckooOp: telemetry.CuckooInsert,
		KeyHash: 42, Moves: 3, OK: true, Len: 1, Capacity: 64})
	r.Trace(telemetry.Event{Kind: telemetry.KindLearnFlush, Now: 7, Batch: 5, Full: true})

	j := r.Journal()
	if len(j) != 3 {
		t.Fatalf("want 3 journal records, got %d", len(j))
	}
	if j[0].Kind != KindPoolUpdate || j[0].Step != "transition" ||
		j[0].VIP != "10.0.0.1:80/tcp" || j[0].PrevVersion != 1 || j[0].Version != 2 ||
		len(j[0].Before) != 1 || len(j[0].After) != 2 {
		t.Fatalf("pool update record mismatch: %+v", j[0])
	}
	if j[1].Kind != KindCuckoo || j[1].Op != "insert" || j[1].Moves != 3 || !j[1].OK {
		t.Fatalf("cuckoo record mismatch: %+v", j[1])
	}
	if j[2].Kind != KindLearnFlush || j[2].Batch != 5 || !j[2].Full {
		t.Fatalf("learn flush record mismatch: %+v", j[2])
	}
	for i, rec := range j {
		if rec.Seq != uint64(i) {
			t.Fatalf("journal seq %d at index %d: not gap-free", rec.Seq, i)
		}
	}
}

func TestForwardsToInner(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(Config{})
	r.SetInner(reg)
	vs := r.RegisterVIP(0, telemetry.VIPKey{Addr: netip.MustParseAddr("10.0.0.1"), Port: 80, Proto: 6})
	if vs == nil {
		t.Fatal("RegisterVIP must forward to the inner registry")
	}
	r.Trace(telemetry.Event{Kind: telemetry.KindVerdict, VIP: vs, Verdict: telemetry.VerdictForward,
		WireLen: 64, Stage: -1, Meter: telemetry.MeterNone})
	snap := reg.Snapshot(1)
	if snap.VIPs["10.0.0.1:80/tcp"].Packets != 1 {
		t.Fatal("verdict not forwarded to inner registry")
	}
}

func TestConcurrentWritersGapFreeSeqs(t *testing.T) {
	const writers = 8
	const perWriter = 500
	r := New(Config{JournalRing: writers * perWriter})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Trace(telemetry.Event{Kind: telemetry.KindCuckoo, Pipe: w, KeyHash: uint64(w*perWriter + i),
					CuckooOp: telemetry.CuckooInsert, OK: true})
			}
		}()
	}
	wg.Wait()
	j := r.Journal()
	if len(j) != writers*perWriter {
		t.Fatalf("want %d journal records, got %d", writers*perWriter, len(j))
	}
	for i, rec := range j {
		if rec.Seq != uint64(i) {
			t.Fatalf("journal seq gap at index %d: seq %d", i, rec.Seq)
		}
	}
}
