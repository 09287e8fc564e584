package silkroad

// Facade-level coverage for the flight recorder: Switch.Trace capturing a
// flow's full verdict path, the /debug/silkroad/ introspection surface,
// and the -race churn target that hammers pool updates and 4-pipe batches
// while draining the rings.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netproto"
)

func newRecordedSwitch(t *testing.T, pipes int, cfgRec FlightRecorderConfig) (*Switch, *FlightRecorder) {
	t.Helper()
	cfg := Defaults(100000)
	cfg.Pipes = pipes
	cfg.Telemetry = NewTelemetry()
	cfg.FlightRecorder = NewFlightRecorder(cfgRec)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		t.Fatal(err)
	}
	return sw, cfg.FlightRecorder
}

// TestTraceFacade checks the headline debugging story: arm a flow with
// Switch.Trace, run its connection, and read back the full pipeline path —
// the SYN's learn, the CPU insertion that installed the ConnTable entry,
// and the established packets hitting it.
func TestTraceFacade(t *testing.T) {
	sw, _ := newRecordedSwitch(t, 1, FlightRecorderConfig{})
	target := clientPkt(1, netproto.FlagSYN)

	flow, err := sw.Trace(target.Tuple)
	if err != nil {
		t.Fatal(err)
	}
	process(sw, 0, target)
	process(sw, 0, clientPkt(2, netproto.FlagSYN)) // unarmed flow: must not appear
	sw.AdvanceTo(Time(5 * Millisecond))            // learning filter drains, CPU installs
	res := process(sw, Time(10*Millisecond), clientPkt(1, netproto.FlagACK))
	if !res.ConnHit {
		t.Fatalf("established packet missed ConnTable: %+v", res)
	}

	recs := flow.Records()
	if len(recs) != 3 {
		t.Fatalf("want SYN verdict + insert + ACK verdict, got %d records: %+v", len(recs), recs)
	}
	syn, ins, ack := recs[0], recs[1], recs[2]
	if syn.Kind != "verdict" || !syn.Learned || syn.ConnHit {
		t.Fatalf("SYN record mismatch: %+v", syn)
	}
	if ins.Kind != "insert" || ins.Verdict != "learned/ok" {
		t.Fatalf("insert record mismatch: %+v", ins)
	}
	if ack.Kind != "verdict" || !ack.ConnHit || ack.Stage < 0 || ack.DIP == "" {
		t.Fatalf("ACK record mismatch: %+v", ack)
	}
	for _, r := range recs {
		if r.Flow != target.Tuple.String() {
			t.Fatalf("record for wrong flow: %+v", r)
		}
	}

	// The other flow stayed untraced.
	if got := sw.FlightRecorder().FlowTrace(clientPkt(2, 0).Tuple); len(got) != 0 {
		t.Fatalf("unarmed flow recorded %d records", len(got))
	}

	// The journal saw the insertion.
	var inserts int
	for _, j := range sw.FlightRecorder().Journal() {
		if j.Kind == "cuckoo" && j.Op == "insert" {
			inserts++
		}
	}
	if inserts != 2 {
		t.Fatalf("journal: want 2 cuckoo inserts, got %d", inserts)
	}

	flow.Stop()
	process(sw, Time(11*Millisecond), clientPkt(1, netproto.FlagACK))
	if got := flow.Records(); len(got) != 3 {
		t.Fatalf("stopped flow kept recording: %d records", len(got))
	}

	// Without a recorder, Trace fails with the sentinel.
	plain := newSwitch(t)
	if _, err := plain.Trace(target.Tuple); !errors.Is(err, ErrNoRecorder) {
		t.Fatalf("Trace without recorder: err = %v, want ErrNoRecorder", err)
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return resp
}

// TestDebugEndpoints drives the /debug/silkroad/ surface end to end on a
// 2-pipe switch: arm over HTTP, run traffic, read the trace, and dump
// every table.
func TestDebugEndpoints(t *testing.T) {
	sw, _ := newRecordedSwitch(t, 2, FlightRecorderConfig{})
	srv := httptest.NewServer(sw.DebugHandler())
	defer srv.Close()

	target := clientPkt(3, netproto.FlagSYN)
	flowQ := "?flow=" + target.Tuple.String()

	if resp := getJSON(t, srv, "/debug/silkroad/arm"+flowQ, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("arm: status %d", resp.StatusCode)
	}
	process(sw, 0, target)
	sw.AdvanceTo(Time(5 * Millisecond))
	process(sw, Time(10*Millisecond), clientPkt(3, netproto.FlagACK))

	var trace struct {
		Flow    string         `json:"flow"`
		Armed   bool           `json:"armed"`
		Records []PacketRecord `json:"records"`
	}
	getJSON(t, srv, "/debug/silkroad/trace"+flowQ, &trace)
	if !trace.Armed || len(trace.Records) != 3 {
		t.Fatalf("trace: armed=%v records=%d", trace.Armed, len(trace.Records))
	}

	var conntable []struct {
		Pipe    int `json:"pipe"`
		Len     int `json:"len"`
		Entries []struct {
			Stage int `json:"stage"`
		} `json:"entries"`
	}
	getJSON(t, srv, "/debug/silkroad/conntable", &conntable)
	if len(conntable) != 2 {
		t.Fatalf("conntable: %d pipes", len(conntable))
	}
	totalConns := 0
	for _, p := range conntable {
		totalConns += p.Len
		if p.Len != len(p.Entries) {
			t.Fatalf("pipe %d: len %d != %d entries", p.Pipe, p.Len, len(p.Entries))
		}
	}
	if totalConns != 1 {
		t.Fatalf("conntable: want 1 installed connection, got %d", totalConns)
	}

	var vips []struct {
		Pipe int `json:"pipe"`
		VIPs []struct {
			VIP      string `json:"vip"`
			Versions []struct {
				Version uint32   `json:"version"`
				Pool    []string `json:"pool"`
			} `json:"versions"`
		} `json:"vips"`
	}
	getJSON(t, srv, "/debug/silkroad/vips", &vips)
	for _, p := range vips {
		if len(p.VIPs) != 1 || p.VIPs[0].VIP != testVIP().String() {
			t.Fatalf("vips pipe %d: %+v", p.Pipe, p.VIPs)
		}
		if len(p.VIPs[0].Versions) == 0 || len(p.VIPs[0].Versions[0].Pool) != 3 {
			t.Fatalf("vips pipe %d: missing pool dump: %+v", p.Pipe, p.VIPs[0])
		}
	}

	var sram []struct {
		Pipe       int `json:"pipe"`
		Stages     []struct{ Slots int }
		TotalBytes int `json:"total_bytes"`
	}
	getJSON(t, srv, "/debug/silkroad/sram", &sram)
	for _, p := range sram {
		if len(p.Stages) == 0 || p.TotalBytes <= 0 {
			t.Fatalf("sram pipe %d: %+v", p.Pipe, p)
		}
	}

	getJSON(t, srv, "/debug/silkroad/pending", &[]struct{}{})
	var journal struct {
		Total   uint64          `json:"total"`
		Records []JournalRecord `json:"records"`
	}
	getJSON(t, srv, "/debug/silkroad/journal", &journal)
	if journal.Total == 0 || len(journal.Records) == 0 {
		t.Fatal("journal: no records after an insertion")
	}

	if resp := getJSON(t, srv, "/debug/silkroad/disarm"+flowQ, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("disarm: status %d", resp.StatusCode)
	}
	getJSON(t, srv, "/debug/silkroad/trace"+flowQ, &trace)
	if trace.Armed {
		t.Fatal("trace still armed after disarm")
	}

	// Parameter and recorder-absence errors.
	if resp := getJSON(t, srv, "/debug/silkroad/trace", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace without flow: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/debug/silkroad/trace?flow=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace with bad flow: status %d", resp.StatusCode)
	}
	plain := newSwitch(t)
	plainSrv := httptest.NewServer(plain.DebugHandler())
	defer plainSrv.Close()
	if resp := getJSON(t, plainSrv, "/debug/silkroad/packets", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("packets without recorder: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, plainSrv, "/debug/silkroad/conntable", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("conntable must work without a recorder: status %d", resp.StatusCode)
	}
}

// checkJournalShape asserts one snapshot is well-formed: sequence numbers
// strictly increase and every record's fields are consistent with its kind
// (a torn write would interleave fields of two different records).
func checkJournalShape(t *testing.T, j []JournalRecord) {
	t.Helper()
	for i, r := range j {
		if i > 0 && r.Seq <= j[i-1].Seq {
			t.Fatalf("journal seqs not increasing at %d: %d after %d", i, r.Seq, j[i-1].Seq)
		}
		switch r.Kind {
		case "pool_update":
			if r.Step == "" || r.VIP != testVIP().String() || r.Op != "" {
				t.Fatalf("torn pool_update record: %+v", r)
			}
		case "cuckoo":
			if r.Op == "" || r.Step != "" || r.VIP != "" {
				t.Fatalf("torn cuckoo record: %+v", r)
			}
		case "learn_flush":
			if r.Step != "" || r.Op != "" || r.Batch <= 0 {
				t.Fatalf("torn learn_flush record: %+v", r)
			}
		case "reconcile":
			if r.Step == "" || r.KeyHash != 0 || r.Batch != 0 {
				t.Fatalf("torn reconcile record: %+v", r)
			}
		default:
			t.Fatalf("unknown journal kind: %+v", r)
		}
	}
}

// TestFlightRecorderChurnRace is the -race target: 4 pipes processing
// batches and a goroutine churning the DIP pool while a third drains the
// packet ring and the journal. The journal ring is sized to hold every
// event, so at the end its sequence numbers must be exactly 0..n-1 —
// gap-free — and every snapshot along the way must be free of torn
// records.
func TestFlightRecorderChurnRace(t *testing.T) {
	cfg := Defaults(200_000)
	cfg.Pipes = 4
	cfg.Telemetry = NewTelemetry()
	cfg.FlightRecorder = NewFlightRecorder(FlightRecorderConfig{
		PacketRing:  1 << 12,
		JournalRing: 1 << 16,
		SampleEvery: 7,
	})
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := sw.FlightRecorder()
	poolA := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")
	poolB := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.4:20")
	if err := sw.AddVIP(0, testVIP(), poolA); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Trace(clientPkt(17, 0).Tuple); err != nil {
		t.Fatal(err)
	}

	const conns = 4000
	const batchSize = 256
	const passes = 3
	const updates = 200
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
		for i := 0; i < updates; i++ {
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
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkJournalShape(t, rec.Journal())
			pkts := rec.Packets()
			for i, r := range pkts {
				if i > 0 && r.Seq <= pkts[i-1].Seq {
					t.Errorf("packet seqs not increasing at %d", i)
					return
				}
				if r.Kind != "verdict" && r.Kind != "insert" {
					t.Errorf("torn packet record: %+v", r)
					return
				}
				if r.Flow == "" {
					t.Errorf("packet record missing flow: %+v", r)
					return
				}
			}
			runtime.Gosched()
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	sw.AdvanceTo(Time(nowNS.Load()).Add(Duration(Second)))

	j := rec.Journal()
	total := rec.JournalSeq()
	if uint64(len(j)) != total {
		t.Fatalf("journal ring overflowed: %d records for %d seqs (size the ring up)", len(j), total)
	}
	for i, r := range j {
		if r.Seq != uint64(i) {
			t.Fatalf("journal seq gap at index %d: seq %d", i, r.Seq)
		}
	}
	checkJournalShape(t, j)

	// The armed flow's trace survived the churn: its SYN, insert, and
	// established packets are all present and ordered.
	trace := rec.FlowTrace(clientPkt(17, 0).Tuple)
	var verdicts, inserts int
	for _, r := range trace {
		switch r.Kind {
		case "verdict":
			verdicts++
		case "insert":
			inserts++
		}
	}
	if verdicts != passes || inserts != 1 {
		t.Fatalf("armed flow trace: %d verdicts, %d inserts (want %d, 1): %+v",
			verdicts, inserts, passes, trace)
	}
}
