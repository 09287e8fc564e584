package ctrlplane

import (
	"reflect"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// TestTransitSYNArbitrationDeterministic forces the two resolveTransitSYN
// paths deterministically by driving the data plane's update state
// directly: (a) a pending connection's retransmitted SYN keeps its old
// version; (b) a brand-new connection falsely hitting the bloom filter is
// pinned to the current version.
func TestTransitSYNArbitrationDeterministic(t *testing.T) {
	dcfg := dataplane.DefaultConfig(10000)
	dcfg.TransitTableBytes = 8 // saturates quickly -> guaranteed FPs
	dcfg.TransitTableHashes = 1
	h := newHarness(t, dcfg, DefaultConfig())
	vip := testVIP()
	if err := h.cp.AddVIP(0, vip, poolN(8), 0); err != nil {
		t.Fatal(err)
	}
	h.sw.WritePool(vip, 1, poolN(7))
	h.sw.SetRecording(vip, true)
	// Pending connections recorded into the bloom filter; their learn
	// events sit in the filter (not yet drained: no Advance).
	pendingRes := map[int]dataplane.Result{}
	for i := 0; i < 300; i++ {
		pkt := &netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagSYN}
		pendingRes[i] = h.sw.ProcessFrame(simtime.Time(i), frameOf(pkt))
	}
	// Swap to v1 directly on the hardware (the cp's own update machinery
	// is bypassed so the window stays open indefinitely).
	if err := h.sw.BeginTransition(vip, 1); err != nil {
		t.Fatal(err)
	}
	// (a) Retransmitted SYN of a pending connection: stays on version 0.
	retrans := &netproto.Packet{Tuple: tupleN(5), TCPFlags: netproto.FlagSYN}
	res := h.sw.ProcessFrame(simtime.Time(1000), frameOf(retrans))
	if res.Verdict != dataplane.VerdictRedirectSYNTransit {
		t.Fatalf("retransmitted SYN verdict = %v (bloom should hit)", res.Verdict)
	}
	h.cp.HandleTupleResultInto(simtime.Time(1000), retrans.Tuple, &res)
	if res.Verdict != dataplane.VerdictForward || res.Version != 0 {
		t.Fatalf("retransmitted pending SYN resolved to version %d", res.Version)
	}
	if res.DIP != pendingRes[5].DIP {
		t.Fatal("retransmitted SYN changed DIP")
	}
	if h.cp.Metrics().RetransmittedSYNs == 0 {
		t.Fatal("retransmission not classified")
	}
	// (b) Brand-new connections: the saturated 8B filter false-positives;
	// arbitration must pin them to the CURRENT version (0 in cp's view,
	// since the hardware swap bypassed cp) with an installed entry.
	fps := 0
	for i := 1000; i < 1100; i++ {
		pkt := &netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagSYN}
		r := h.sw.ProcessFrame(simtime.Time(2000+i), frameOf(pkt))
		if r.Verdict != dataplane.VerdictRedirectSYNTransit {
			continue
		}
		h.cp.HandleTupleResultInto(simtime.Time(2000+i), pkt.Tuple, &r)
		if r.Verdict != dataplane.VerdictForward {
			t.Fatalf("FP SYN unresolved: %v", r.Verdict)
		}
		if _, ok := h.sw.LookupConn(tupleN(i)); !ok {
			t.Fatal("FP-arbitrated connection not installed")
		}
		fps++
	}
	if fps == 0 {
		t.Fatal("no false positives with a saturated 8-byte filter")
	}
	if h.cp.Metrics().BloomFPsResolved == 0 {
		t.Fatal("FP resolutions not counted")
	}
}

func TestAccessorsAndPanics(t *testing.T) {
	h := defaultHarness(t)
	if h.cp.VersionsAllocated(testVIP()) != 1 {
		t.Fatalf("VersionsAllocated = %d", h.cp.VersionsAllocated(testVIP()))
	}
	if h.cp.MaxActiveVersions(testVIP()) != 0 {
		// maxActive only grows when updates mint pools.
		t.Log("maxActive starts at 0 before first update")
	}
	if h.cp.VersionsAllocated(dataplane.VIP{}) != 0 || h.cp.MaxActiveVersions(dataplane.VIP{}) != 0 {
		t.Fatal("unknown VIP accessors should be 0")
	}
	if (Metrics{}).MeanInsertDelay() != 0 {
		t.Fatal("MeanInsertDelay on empty metrics")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero InsertRate did not panic")
		}
	}()
	New(h.sw, Config{})
}

func TestPendingVersionFromCPUQueue(t *testing.T) {
	// Events drained from the filter into the CPU queue must still be
	// findable by pendingVersion (the SYN-arbitration watermark).
	h := defaultHarness(t)
	tup := tupleN(1)
	h.send(0, tup, netproto.FlagSYN)
	// Flush the filter into the queue but do not complete the insert:
	// flush due at 1ms, insert completes 5us later.
	flushAt := simtime.Time(simtime.Millisecond)
	h.cp.Advance(flushAt)
	if h.cp.TrackedConns() != 0 {
		t.Skip("insert already completed; queue window missed")
	}
	if v, ok := h.cp.pendingVersion(h.sw.KeyHash(tup)); !ok || v != 0 {
		t.Fatalf("pendingVersion from queue = (%d,%v)", v, ok)
	}
}

func TestInstallSkipsWithdrawnVIP(t *testing.T) {
	h := defaultHarness(t)
	h.send(0, tupleN(1), netproto.FlagSYN)
	// Withdraw the VIP while the learn event is in flight.
	if err := h.cp.RemoveVIP(simtime.Time(10), testVIP()); err != nil {
		t.Fatal(err)
	}
	h.cp.Advance(ms(10)) // must not panic; event dropped
	if h.cp.Metrics().Inserted != 0 {
		t.Fatal("event for withdrawn VIP installed")
	}
}

// TestMetricsAddOntoZeroIsIdentity guards the aggregation every facade
// counter flows through, one pipe included: a field added to Metrics and
// forgotten in Add (MaxInsertQueue's maximum included) would read zero from
// Switch.Stats with nothing else noticing.
func TestMetricsAddOntoZeroIsIdentity(t *testing.T) {
	var want Metrics
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		default: // int, simtime.Duration
			f.SetInt(int64(i + 1))
		}
	}
	var got Metrics
	got.Add(want)
	if got != want {
		t.Fatalf("Add onto the zero value lost a field:\n got %+v\nwant %+v", got, want)
	}
}
