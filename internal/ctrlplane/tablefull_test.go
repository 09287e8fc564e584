package ctrlplane

// Coverage for both cuckoo.ErrTableFull branches in advance.go: the
// queued install path (retry with backoff, then overflow) and the inline
// install path (digest-FP arbitration against a full table).

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func us(n int) simtime.Duration { return simtime.Duration(n) * simtime.Microsecond }

// fullHarness installs one connection and then caps the ConnTable at its
// current occupancy, so every further insertion hits ErrTableFull.
func fullHarness(t *testing.T, ccfg Config) *harness {
	t.Helper()
	h := newHarness(t, dataplane.DefaultConfig(10000), ccfg)
	if err := h.cp.AddVIP(0, testVIP(), poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	h.send(0, tupleN(1), netproto.FlagSYN)
	h.cp.Advance(ms(2))
	if h.cp.Metrics().Inserted != 1 {
		t.Fatalf("setup: Inserted = %d", h.cp.Metrics().Inserted)
	}
	h.sw.SetConnTableLimit(h.sw.ConnTable().Len())
	return h
}

func TestInstallRetriesThenOverflows(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.MaxInsertRetries = 2
	var overflowed []netproto.FiveTuple
	ccfg.OnOverflow = func(now simtime.Time, tup netproto.FiveTuple, dip dataplane.DIP) {
		if !dip.IsValid() {
			t.Errorf("overflow callback got invalid DIP")
		}
		overflowed = append(overflowed, tup)
	}
	h := fullHarness(t, ccfg)

	h.send(ms(3), tupleN(2), netproto.FlagSYN)
	h.cp.Advance(ms(100)) // far beyond the worst-case backoff sum
	m := h.cp.Metrics()
	if m.InsertRetries != 2 {
		t.Fatalf("InsertRetries = %d, want 2", m.InsertRetries)
	}
	if m.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", m.Overflows)
	}
	if len(overflowed) != 1 || overflowed[0] != tupleN(2) {
		t.Fatalf("OnOverflow saw %v", overflowed)
	}
	// The flow stays unpinned but keeps forwarding via VIPTable.
	res := h.send(ms(101), tupleN(2), netproto.FlagACK)
	if res.Verdict != dataplane.VerdictForward || res.ConnHit {
		t.Fatalf("overflowed flow: verdict=%v connHit=%v", res.Verdict, res.ConnHit)
	}
	if h.violations != 0 {
		t.Fatalf("PCC violations = %d", h.violations)
	}
}

func TestInstallRetryRecoversWhenSpaceFrees(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.MaxInsertRetries = 5
	h := fullHarness(t, ccfg)

	// SYN at 3ms: the learn flush lands at 4ms, the first install attempt
	// ~5us later fails against the capped table and backs off 1ms.
	h.send(ms(3), tupleN(2), netproto.FlagSYN)
	h.cp.Advance(ms(4).Add(us(10)))
	if got := h.cp.Metrics().InsertRetries; got != 1 {
		t.Fatalf("InsertRetries after first attempt = %d, want 1", got)
	}
	// The squeeze lifts before the retry fires: the insertion must land.
	h.sw.SetConnTableLimit(0)
	h.cp.Advance(ms(100))
	m := h.cp.Metrics()
	if m.Inserted != 2 {
		t.Fatalf("Inserted = %d, want 2", m.Inserted)
	}
	if m.Overflows != 0 {
		t.Fatalf("Overflows = %d, want 0", m.Overflows)
	}
	if v, ok := h.sw.LookupConn(tupleN(2)); !ok || v != 0 {
		t.Fatalf("retried conn not installed: (%d, %v)", v, ok)
	}
	// A retried insertion still pins the flow: later packets hit ConnTable.
	res := h.send(ms(101), tupleN(2), netproto.FlagACK)
	if !res.ConnHit {
		t.Fatal("retried conn missing from ConnTable")
	}
}

// TestInlineInstallTableFull drives the installInline ErrTableFull branch:
// a SYN whose (bucket, digest) aliases an installed entry triggers digest
// false-positive arbitration; the relocation succeeds (occupancy is
// unchanged) but the new connection's own insertion hits the full table.
func TestInlineInstallTableFull(t *testing.T) {
	dcfg := dataplane.DefaultConfig(64)
	dcfg.DigestBits = 4 // tiny digests make aliases cheap to brute-force
	h := newHarness(t, dcfg, DefaultConfig())
	if err := h.cp.AddVIP(0, testVIP(), poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	anchor := tupleN(1)
	h.send(0, anchor, netproto.FlagSYN)
	h.cp.Advance(ms(2))
	if h.cp.Metrics().Inserted != 1 {
		t.Fatal("anchor not installed")
	}

	// Brute-force a distinct tuple that Lookup confuses with the anchor.
	khA := h.sw.KeyHash(anchor)
	var alias netproto.FiveTuple
	found := false
	for i := 2; i < 200000; i++ {
		cand := tupleN(i)
		kh := h.sw.KeyHash(cand)
		if kh == khA {
			continue
		}
		if _, _, ok := h.sw.ConnTable().Lookup(kh, h.sw.ConnDigest(cand)); ok {
			alias, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no digest alias found (DigestBits too large?)")
	}

	h.sw.SetConnTableLimit(h.sw.ConnTable().Len())
	res := h.send(ms(3), alias, netproto.FlagSYN)
	if res.Verdict != dataplane.VerdictForward {
		t.Fatalf("alias SYN verdict = %v", res.Verdict)
	}
	m := h.cp.Metrics()
	if m.DigestFPsResolved != 1 {
		t.Fatalf("DigestFPsResolved = %d, want 1", m.DigestFPsResolved)
	}
	if m.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1 (inline insert against full table)", m.Overflows)
	}
	// The anchor's relocated entry must still pin its flow.
	resA := h.send(ms(4), anchor, netproto.FlagACK)
	if !resA.ConnHit {
		t.Fatal("anchor lost its ConnTable entry after relocation")
	}
	if h.violations != 0 {
		t.Fatalf("PCC violations = %d", h.violations)
	}
}

// TestAgingFreesSlotBeforeQueuedRetry pins the order of one long Advance
// step: an aging expiry due before a queued full-table retry runs before
// it, exactly as if the driver had stepped to each deadline in turn.
func TestAgingFreesSlotBeforeQueuedRetry(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.AgingTimeout = simtime.Duration(800 * simtime.Millisecond) // aging step: 100ms
	ccfg.MaxInsertRetries = 23
	h := fullHarness(t, ccfg)

	// On the retry schedule (1 ms doubling, capped at 50 ms) attempts at ~4,
	// 5, 7, 11, 19, 35, 67, 117, ..., 867 ms fail against the capped table:
	// 23 of them. Conn 1 (idle since ~1 ms) ages out on the 900 ms tick, so
	// the attempt at ~917 ms — the last one allowed — must find its slot
	// free.
	h.send(ms(3), tupleN(2), netproto.FlagSYN)
	h.cp.Advance(ms(1500))
	m := h.cp.Metrics()
	if m.AgedOut != 1 || m.InsertRetries != 23 || m.Overflows != 0 || m.Inserted != 2 {
		t.Fatalf("AgedOut=%d InsertRetries=%d Overflows=%d Inserted=%d, want 1 23 0 2",
			m.AgedOut, m.InsertRetries, m.Overflows, m.Inserted)
	}
	if _, ok := h.sw.LookupConn(tupleN(2)); !ok {
		t.Fatal("retried conn not installed after the aged slot freed")
	}
}

// TestAgingStepsNeverPullTimeBack covers aging that idled behind the clock:
// the first connection arrives long after the epoch, and the aging steps
// inside Advance must never stamp work before the last instant already run
// instead of replaying it.
func TestAgingStepsNeverPullTimeBack(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.AgingTimeout = simtime.Duration(800 * simtime.Millisecond)
	var seen []simtime.Time
	dcfg := dataplane.DefaultConfig(10000)
	dcfg.Tracer = traceFunc(func(e telemetry.Event) {
		if e.Kind == telemetry.KindUpdateStep {
			seen = append(seen, e.Now)
		}
	})
	h := newHarness(t, dcfg, ccfg)
	if err := h.cp.AddVIP(0, testVIP(), poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	start := ms(100_000)
	h.send(start, tupleN(1), netproto.FlagSYN)
	h.cp.Advance(start.Add(simtime.Duration(2 * simtime.Millisecond)))
	if err := h.cp.RequestUpdate(start.Add(simtime.Duration(3*simtime.Millisecond)), testVIP(), poolN(3)); err != nil {
		t.Fatal(err)
	}
	h.cp.Advance(start.Add(simtime.Duration(500 * simtime.Millisecond)))
	if len(seen) == 0 {
		t.Fatal("update emitted no step events")
	}
	for _, at := range seen {
		if at.Before(start) {
			t.Fatalf("update step stamped %v, before the clock's %v", at, start)
		}
	}
	if m := h.cp.Metrics(); m.AgedOut != 0 || m.Inserted != 1 {
		t.Fatalf("AgedOut=%d Inserted=%d, want 0 1", m.AgedOut, m.Inserted)
	}
}
