package ctrlplane

import (
	"math/rand"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// traceFunc is a tracer that hands every event to the function.
type traceFunc func(telemetry.Event)

func (traceFunc) RegisterVIP(int, telemetry.VIPKey) *telemetry.VIPSeries { return nil }
func (f traceFunc) Trace(e telemetry.Event)                              { f(e) }

// TestAgingSweepOnTheWheelsGrid: aging steps lie on the grid a timing wheel
// ticking from time 0 would fire, max(timeout/8, 100 ms) apart. Over a few
// thousand connections opened and touched at random instants and driven by
// Advance calls of random length, every connection is released at the first
// grid instant t with t - lastSeen >= timeout, never earlier and never later;
// nextAging is never later than the first expiry still to come and reports
// nothing once no connection is live. A connection pinned at time 0 beside a
// vacated record ages like any other: a last-seen time of 0 is a time, not
// the mark of a free record.
func TestAgingSweepOnTheWheelsGrid(t *testing.T) {
	for _, timeout := range []simtime.Duration{500 * simtime.Millisecond, 2 * simtime.Second} {
		t.Run(timeout.String(), func(t *testing.T) { agingGridScript(t, timeout) })
	}
}

func agingGridScript(t *testing.T, timeout simtime.Duration) {
	step := simtime.Time(max(timeout/8, 100*simtime.Millisecond))
	expiry := func(lastSeen simtime.Time) simtime.Time { // first grid instant t with t - lastSeen >= timeout
		at := lastSeen.Add(timeout) + step - 1
		return at - at%step
	}
	var (
		seen     = map[uint64]simtime.Time{} // live connections by key hash: last seen
		ended    = map[uint64]bool{}         // released by EndConnection, not by aging
		released int
	)
	ccfg := DefaultConfig()
	ccfg.AgingTimeout = timeout
	dcfg := dataplane.DefaultConfig(8192)
	dcfg.Tracer = traceFunc(func(e telemetry.Event) {
		switch {
		case e.Kind != telemetry.KindCuckoo:
		case e.CuckooOp == telemetry.CuckooInsert && e.OK:
			seen[e.KeyHash] = e.Now
		case e.CuckooOp == telemetry.CuckooDelete && ended[e.KeyHash]:
			delete(seen, e.KeyHash)
		case e.CuckooOp == telemetry.CuckooDelete:
			last, live := seen[e.KeyHash]
			if want := expiry(last); !live || e.Now != want {
				t.Fatalf("connection %#x (live %v, last seen %v) released at %v, want %v", e.KeyHash, live, last, e.Now, want)
			}
			delete(seen, e.KeyHash)
			released++
		}
	})
	h := newHarness(t, dcfg, ccfg)
	if err := h.cp.AddVIP(0, testVIP(), poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	now := simtime.Time(0)
	check := func() {
		t.Helper()
		due, ok := h.cp.nextAging()
		if h.cp.TrackedConns() != len(seen) {
			t.Fatalf("at %v: %d connections tracked, the oracle holds %d", now, h.cp.TrackedConns(), len(seen))
		}
		if len(seen) == 0 {
			if ok {
				t.Fatalf("at %v: nextAging = %v with no connection live", now, due)
			}
			return
		}
		first := simtime.Time(vacant)
		for _, last := range seen {
			first = min(first, expiry(last))
		}
		if !first.After(now) {
			t.Fatalf("at %v: a connection due at %v is still live", now, first)
		}
		if !ok || due.After(first) {
			t.Fatalf("at %v: nextAging = %v, %v; the first expiry is %v", now, due, ok, first)
		}
	}

	// Two connections pinned at time 0 and the first ended at once: record 1
	// is vacated and record 2 was last seen at 0. Nothing else opens until
	// record 2 has aged.
	vc := h.cp.vips[testVIP()]
	for _, tup := range []netproto.FiveTuple{tupleN(0), tupleN(1)} {
		if err := h.cp.pin(0, vc, tup, h.sw.KeyHash(tup), h.sw.ConnDigest(tup), 0); err != nil {
			t.Fatal(err)
		}
	}
	ended[h.sw.KeyHash(tupleN(0))] = true
	h.cp.EndConnection(0, tupleN(0))
	if e, ok := h.cp.tracked(h.sw.KeyHash(tupleN(1)), h.sw.ConnDigest(tupleN(1))); !ok || e.Record != 2 || h.cp.conns.v4.free != 1 {
		t.Fatalf("record %d tracked %v beside free record %d, want record 2 beside record 1", e.Record, ok, h.cp.conns.v4.free)
	}
	for now < expiry(0)+step {
		now = now.Add(simtime.Duration(step / 4))
		h.cp.Advance(now)
		check()
	}
	if released != 1 {
		t.Fatalf("%d connections aged out by %v, want the one seen at 0", released, now)
	}
	// Alone in the store, a connection pinned now is the oldest: the next
	// step is exactly its expiry.
	if err := h.cp.pin(now, vc, tupleN(0), h.sw.KeyHash(tupleN(0)), h.sw.ConnDigest(tupleN(0)), 0); err != nil {
		t.Fatal(err)
	}
	if due, ok := h.cp.nextAging(); !ok || due != expiry(now) {
		t.Fatalf("nextAging = %v, %v for one connection pinned at %v, want %v", due, ok, now, expiry(now))
	}
	h.cp.EndConnection(now, tupleN(0))

	// Open connections at random instants, touch live ones at random, then
	// let everything idle out.
	rng := rand.New(rand.NewSource(int64(timeout)))
	const conns = 3000
	opened, touched := 2, 0
	for len(seen) > 0 || opened < conns {
		now = now.Add(simtime.Duration(1+rng.Int63n(int64(3*step/simtime.Time(simtime.Millisecond)))) * simtime.Millisecond)
		h.cp.Advance(now)
		check()
		if opened == conns {
			continue
		}
		for n := rng.Intn(64); n > 0 && opened < conns; n-- {
			h.send(now, tupleN(opened), netproto.FlagSYN)
			opened++
		}
		for n := rng.Intn(opened / 4); n > 0; n-- {
			tup := tupleN(2 + rng.Intn(opened-2))
			kh := h.sw.KeyHash(tup)
			if _, live := seen[kh]; !live {
				continue
			}
			if res := h.send(now, tup, netproto.FlagACK); res.Verdict != dataplane.VerdictForward {
				t.Fatalf("at %v: a live connection's packet: %+v", now, res)
			}
			seen[kh] = now
			touched++
		}
	}
	if released != conns-1 || touched == 0 || int(h.cp.Metrics().AgedOut) != released {
		t.Fatalf("%d aged out (AgedOut %d) of %d with %d touches: the script did not run as intended",
			released, h.cp.Metrics().AgedOut, conns-1, touched)
	}
	if _, ok := h.cp.nextAging(); ok {
		t.Fatal("nextAging reports a step with no connection live")
	}
}
