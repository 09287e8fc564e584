package ctrlplane

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

func testVIP() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func pool(names ...string) []dataplane.DIP {
	out := make([]dataplane.DIP, len(names))
	for i, n := range names {
		out[i] = netip.MustParseAddrPort(n)
	}
	return out
}

func poolN(n int) []dataplane.DIP {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("10.0.0.%d:20", i+1)
	}
	return pool(names...)
}

func tupleN(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{1, 2, byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: uint16(1024 + i%50000),
		DstPort: 80,
		Proto:   netproto.ProtoTCP,
	}
}

// harness wires a switch + control plane and drives packets through both,
// checking per-connection consistency like the flow simulator does.
type harness struct {
	t          *testing.T
	sw         *dataplane.Switch
	cp         *ControlPlane
	firstDIP   map[uint64]dataplane.DIP
	violations int
}

func newHarness(t *testing.T, dcfg dataplane.Config, ccfg Config) *harness {
	t.Helper()
	sw, err := dataplane.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := New(sw, ccfg)
	return &harness{t: t, sw: sw, cp: cp, firstDIP: map[uint64]dataplane.DIP{}}
}

// frameOf is pkt's synthetic frame (Packet.Frame): the tests build packets
// and convert them at their own edge.
func frameOf(pkt *netproto.Packet) *netproto.Frame {
	f := new(netproto.Frame)
	pkt.Frame(f)
	return f
}

// processFrame is the per-packet step as the engine (internal/pipes)
// composes it: poll, pipeline, CPU verdict.
func processFrame(cp *ControlPlane, now simtime.Time, f *netproto.Frame, res *dataplane.Result) {
	cp.Advance(now)
	cp.sw.ProcessFrameInto(now, f, res)
	cp.HandleTupleResultInto(now, f.Tuple, res)
}

// send processes one packet at now, resolving CPU redirects, and tracks
// PCC: a forwarded packet whose DIP differs from the connection's first
// DIP is a violation.
func (h *harness) send(now simtime.Time, tup netproto.FiveTuple, flags uint8) dataplane.Result {
	var res dataplane.Result
	processFrame(h.cp, now, frameOf(&netproto.Packet{Tuple: tup, TCPFlags: flags}), &res)
	if res.Verdict == dataplane.VerdictForward {
		if first, seen := h.firstDIP[res.KeyHash]; seen {
			if first != res.DIP {
				h.violations++
			}
		} else {
			h.firstDIP[res.KeyHash] = res.DIP
		}
	}
	return res
}

func defaultHarness(t *testing.T) *harness {
	h := newHarness(t, dataplane.DefaultConfig(100000), DefaultConfig())
	if err := h.cp.AddVIP(0, testVIP(), poolN(8), 0); err != nil {
		t.Fatal(err)
	}
	return h
}

func ms(n int) simtime.Time { return simtime.Time(n) * simtime.Time(simtime.Millisecond) }

func TestLearnInsertPipeline(t *testing.T) {
	h := defaultHarness(t)
	tup := tupleN(1)
	res := h.send(0, tup, netproto.FlagSYN)
	if !res.Learned {
		t.Fatal("no learn event")
	}
	// Before the learning timeout the entry cannot be installed.
	if _, ok := h.sw.LookupConn(tup); ok {
		t.Fatal("entry installed with zero CPU latency")
	}
	// After timeout + one insert slot (5us at 200K/s) it must be.
	h.cp.Advance(ms(2))
	if v, ok := h.sw.LookupConn(tup); !ok || v != 0 {
		t.Fatalf("entry after advance: (%d,%v)", v, ok)
	}
	m := h.cp.Metrics()
	if m.Inserted != 1 {
		t.Fatalf("Inserted = %d", m.Inserted)
	}
	if m.MeanInsertDelay() < simtime.Duration(simtime.Millisecond) {
		t.Fatalf("insert delay %v below learning timeout", m.MeanInsertDelay())
	}
	// Subsequent packet hits ConnTable.
	res2 := h.send(ms(3), tup, netproto.FlagACK)
	if !res2.ConnHit {
		t.Fatal("packet after install missed")
	}
	if h.violations != 0 {
		t.Fatalf("violations = %d", h.violations)
	}
}

func TestPCCAcrossUpdateWithPendingConns(t *testing.T) {
	h := defaultHarness(t)
	vip := testVIP()
	// Start connections; while they are still pending, request an update.
	var tups []netproto.FiveTuple
	for i := 0; i < 50; i++ {
		tup := tupleN(i)
		tups = append(tups, tup)
		h.send(simtime.Time(i)*1000, tup, netproto.FlagSYN)
	}
	// t=0.1ms: update requested while all 50 conns are pending.
	if err := h.cp.RemoveDIP(simtime.Time(100_000), vip, poolN(8)[7]); err != nil {
		t.Fatal(err)
	}
	// Pending conns keep sending through the window where the VIPTable
	// swap happens (~1ms later).
	for step := 1; step <= 8; step++ {
		for _, tup := range tups {
			h.send(ms(step), tup, netproto.FlagACK)
		}
	}
	h.cp.Advance(ms(50))
	for _, tup := range tups {
		h.send(ms(51), tup, netproto.FlagACK)
	}
	if h.violations != 0 {
		t.Fatalf("PCC violations with TransitTable = %d, want 0", h.violations)
	}
	m := h.cp.Metrics()
	if m.UpdatesCompleted != 1 {
		t.Fatalf("UpdatesCompleted = %d", m.UpdatesCompleted)
	}
	// New connections must use the 7-DIP pool.
	cur, _ := h.cp.CurrentPool(vip)
	if len(cur) != 7 {
		t.Fatalf("current pool size = %d", len(cur))
	}
}

func TestNoTransitAblationViolatesPCC(t *testing.T) {
	dcfg := dataplane.DefaultConfig(100000)
	dcfg.DisableTransit = true
	h := newHarness(t, dcfg, DefaultConfig())
	vip := testVIP()
	if err := h.cp.AddVIP(0, vip, poolN(8), 0); err != nil {
		t.Fatal(err)
	}
	// Many pending connections...
	var tups []netproto.FiveTuple
	for i := 0; i < 400; i++ {
		tup := tupleN(i)
		tups = append(tups, tup)
		h.send(simtime.Time(i)*100, tup, netproto.FlagSYN)
	}
	// ...instant swap to a 7-DIP pool...
	if err := h.cp.RequestUpdate(simtime.Time(40_000), vip, poolN(7)); err != nil {
		t.Fatal(err)
	}
	// ...pending conns send again before their entries are installed:
	// ~1/8 of them hash differently under the new pool.
	for _, tup := range tups {
		h.send(simtime.Time(41_000), tup, netproto.FlagACK)
	}
	if h.violations == 0 {
		t.Fatal("expected PCC violations without TransitTable")
	}
	// Pool 8 -> 7 with independent per-version hashing remaps ~7/8 of
	// pending connections.
	frac := float64(h.violations) / 400
	if frac < 0.5 || frac > 0.98 {
		t.Fatalf("violation fraction = %.3f, expected ~0.875", frac)
	}
}

func TestVersionLifecycle(t *testing.T) {
	h := defaultHarness(t)
	vip := testVIP()
	// Install one connection on v0 so v0 stays pinned.
	tup := tupleN(1)
	h.send(0, tup, netproto.FlagSYN)
	h.cp.Advance(ms(5))
	// Update: v1 allocated.
	if err := h.cp.RequestUpdate(ms(6), vip, poolN(7)); err != nil {
		t.Fatal(err)
	}
	h.cp.Advance(ms(20))
	if got := len(h.cp.vips[vip].vers); got != 2 {
		t.Fatalf("live versions = %d, want 2 (v0 pinned by conn)", got)
	}
	// End the connection: v0 retires, pool row deleted.
	h.cp.EndConnection(ms(21), tup)
	if got := len(h.cp.vips[vip].vers); got != 1 {
		t.Fatalf("live versions after end = %d, want 1", got)
	}
	if _, ok := h.sw.LookupConn(tup); ok {
		t.Fatal("entry survived EndConnection")
	}
	m := h.cp.Metrics()
	if m.ConnsEnded != 1 || m.VersionAllocs != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestVersionReuseRollingReboot(t *testing.T) {
	h := defaultHarness(t)
	vip := testVIP()
	dips := poolN(8)
	// Pin v0 with a connection so it stays active.
	tup := tupleN(1)
	h.send(0, tup, netproto.FlagSYN)
	h.cp.Advance(ms(5))
	// Rolling reboot: remove DIP 3 (creates v1), then add a replacement.
	if err := h.cp.RemoveDIP(ms(6), vip, dips[3]); err != nil {
		t.Fatal(err)
	}
	h.cp.Advance(ms(30))
	replacement := netip.MustParseAddrPort("10.0.0.99:20")
	if err := h.cp.AddDIP(ms(31), vip, replacement); err != nil {
		t.Fatal(err)
	}
	h.cp.Advance(ms(60))
	m := h.cp.Metrics()
	if m.VersionReuses != 1 {
		t.Fatalf("VersionReuses = %d, want 1 (substituting the dead slot)", m.VersionReuses)
	}
	// The reused version (v0) must now be current and contain the
	// replacement at the dead DIP's position.
	cur, _ := h.cp.CurrentPool(vip)
	if len(cur) != 8 {
		t.Fatalf("pool size after reuse = %d", len(cur))
	}
	found := false
	for _, d := range cur {
		if d == replacement {
			found = true
		}
		if d == dips[3] {
			t.Fatal("removed DIP resurrected")
		}
	}
	if !found {
		t.Fatal("replacement DIP missing")
	}
	if v, _ := h.sw.CurrentVersion(vip); v != 0 {
		t.Fatalf("current version = %d, want reused 0", v)
	}
}

// TestVersionReuseDeterministic: an update that adds two DIPs into a pinned
// version's two dead slots writes one row on every run — the added DIPs in
// the target's order, into the dead slots in slot order.
func TestVersionReuseDeterministic(t *testing.T) {
	vip := testVIP()
	dips := poolN(8)
	a, b := netip.MustParseAddrPort("10.0.0.98:20"), netip.MustParseAddrPort("10.0.0.99:20")
	want := []dataplane.DIP{dips[0], dips[1], a, dips[3], dips[4], b, dips[6], dips[7]}
	for run := 0; run < 40; run++ {
		h := defaultHarness(t)
		h.send(0, tupleN(1), netproto.FlagSYN) // pins v0
		h.cp.Advance(ms(5))
		kept := []dataplane.DIP{dips[0], dips[1], dips[3], dips[4], dips[6], dips[7]}
		if err := h.cp.RequestUpdate(ms(6), vip, kept); err != nil {
			t.Fatal(err)
		}
		h.cp.Advance(ms(30))
		if err := h.cp.RequestUpdate(ms(31), vip, append(kept, a, b)); err != nil {
			t.Fatal(err)
		}
		h.cp.Advance(ms(60))
		cur, _ := h.cp.CurrentPool(vip)
		if m := h.cp.Metrics(); m.VersionReuses != 1 || !slices.Equal(cur, want) {
			t.Fatalf("run %d: %d reuses wrote %v, want 1 writing %v", run, m.VersionReuses, cur, want)
		}
	}
}

func TestVersionExhaustionRecovers(t *testing.T) {
	dcfg := dataplane.DefaultConfig(10000)
	dcfg.VersionBits = 2 // only 4 versions
	h := newHarness(t, dcfg, DefaultConfig())
	vip := testVIP()
	if err := h.cp.AddVIP(0, vip, poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	// Updates with no live connections: retired versions recycle and the
	// ring never exhausts.
	for i := 0; i < 12; i++ {
		size := 3 + i%3
		if err := h.cp.RequestUpdate(ms(10*i+10), vip, poolN(size)); err != nil {
			t.Fatal(err)
		}
		h.cp.Advance(ms(10*i + 19))
	}
	h.cp.Advance(ms(500))
	m := h.cp.Metrics()
	if m.UpdatesCompleted < 10 {
		t.Fatalf("UpdatesCompleted = %d with 2-bit versions", m.UpdatesCompleted)
	}
}

// TestVersionAllocatorBranches drives both callers of the version
// allocator, MapVersion and pool updates, past the ring on 2-bit versions
// (v0 and a ring of three). With the ring empty an idle version is retired
// on the spot and rewritten. With every version pinned — by an installed
// connection or by an import still waiting in the CPU queue — the
// allocator counts an exhaustion: the import fails with ErrVersionSpace
// and the update waits in the queue until a version retires.
func TestVersionAllocatorBranches(t *testing.T) {
	dcfg := dataplane.DefaultConfig(10000)
	dcfg.VersionBits = 2
	h := newHarness(t, dcfg, DefaultConfig())
	vip := testVIP()
	if err := h.cp.AddVIP(0, vip, poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	mapRow := func(now simtime.Time, row []dataplane.DIP, want uint32) {
		t.Helper()
		if v, err := h.cp.MapVersion(now, vip, row); err != nil || v != want {
			t.Fatalf("MapVersion(%v) = %d, %v; want %d", row, v, err, want)
		}
		if got, _ := h.sw.Pool(vip, want); !slices.Equal(got, row) {
			t.Fatalf("v%d holds %v, want %v", want, got, row)
		}
	}
	importOn := func(now simtime.Time, i int, v uint32) {
		t.Helper()
		if err := h.cp.ImportEntry(now, tupleN(i), v); err != nil {
			t.Fatal(err)
		}
	}
	exhausted := func(want uint64) {
		t.Helper()
		if got := h.cp.Metrics().VersionExhaustions; got != want {
			t.Fatalf("VersionExhaustions = %d, want %d", got, want)
		}
	}

	// The ring hands out v1..v3. With imports waiting on v1 and v2, the
	// next import finds the ring empty and retires v3, the idle one.
	for v := uint32(1); v <= 3; v++ {
		mapRow(0, poolN(int(v)), v)
	}
	importOn(0, 1, 1)
	importOn(0, 2, 2)
	mapRow(0, poolN(5), 3)
	// An update finds the ring empty too and takes v3 back the same way.
	if err := h.cp.RequestUpdate(0, vip, poolN(6)); err != nil {
		t.Fatal(err)
	}
	h.cp.Advance(ms(10))
	if v, _ := h.sw.CurrentVersion(vip); v != 3 || h.cp.Metrics().UpdatesCompleted != 1 {
		t.Fatalf("update swapped to v%d (%d completed), want idle v3 retired and rewritten", v, h.cp.Metrics().UpdatesCompleted)
	}
	exhausted(0)

	// v0 retired into the ring when the update finished; an import takes
	// it and waits. Every version is pinned now: v1 and v2 by installed
	// connections, v3 as current, v0 by the queued import.
	mapRow(ms(10), poolN(7), 0)
	importOn(ms(10), 3, 0)
	if _, err := h.cp.MapVersion(ms(10), vip, poolN(8)); !errors.Is(err, ErrVersionSpace) {
		t.Fatalf("MapVersion with every version pinned: %v, want ErrVersionSpace", err)
	}
	exhausted(1)
	if err := h.cp.RequestUpdate(ms(10), vip, poolN(8)); err != nil {
		t.Fatal(err)
	}
	exhausted(2)
	if h.cp.QueuedUpdates() != 1 || h.cp.ActiveUpdates() != 0 {
		t.Fatalf("exhausted update: %d queued, %d active; want 1 queued", h.cp.QueuedUpdates(), h.cp.ActiveUpdates())
	}
	h.cp.Advance(ms(20))
	if got, _ := h.sw.Pool(vip, 0); !slices.Equal(got, poolN(7)) {
		t.Fatalf("v0 holds %v after its import installed, want %v", got, poolN(7))
	}

	// Ending v1's connection returns v1 to the ring, and the waiting
	// update takes it.
	h.cp.EndConnection(ms(20), tupleN(1))
	h.cp.Advance(ms(40))
	if cur, _ := h.cp.CurrentPool(vip); !slices.Equal(cur, poolN(8)) || h.cp.QueuedUpdates() != 0 {
		t.Fatalf("after v1 retired: pool %v, %d queued; want %v", cur, h.cp.QueuedUpdates(), poolN(8))
	}
	if v, _ := h.sw.CurrentVersion(vip); v != 1 {
		t.Fatalf("update swapped to v%d, want v1", v)
	}
}

func TestUpdatesSerializePerVIP(t *testing.T) {
	h := defaultHarness(t)
	vip := testVIP()
	h.cp.RequestUpdate(ms(1), vip, poolN(7))
	h.cp.RequestUpdate(ms(1), vip, poolN(6))
	h.cp.RequestUpdate(ms(1), vip, poolN(5))
	h.cp.Advance(ms(200))
	m := h.cp.Metrics()
	if m.UpdatesCompleted != 3 {
		t.Fatalf("UpdatesCompleted = %d, want 3", m.UpdatesCompleted)
	}
	cur, _ := h.cp.CurrentPool(vip)
	if len(cur) != 5 {
		t.Fatalf("final pool size = %d, want 5", len(cur))
	}
}

func TestCoalescedUpdate(t *testing.T) {
	h := defaultHarness(t)
	if err := h.cp.RequestUpdate(ms(1), testVIP(), poolN(8)); err != nil {
		t.Fatal(err)
	}
	m := h.cp.Metrics()
	if m.UpdatesCoalesced != 1 {
		t.Fatalf("identical pool should coalesce: %+v", m)
	}
}

func TestDigestCollisionResolution(t *testing.T) {
	// Force digest collisions with a 1-bit digest: most connections alias.
	// Every redirected SYN must be arbitrated to a forward verdict and the
	// CPU must resolve a meaningful number of false positives; connections
	// whose SYN was arbitrated get their own entry.
	dcfg := dataplane.DefaultConfig(10000)
	dcfg.DigestBits = 1
	h := newHarness(t, dcfg, DefaultConfig())
	vip := testVIP()
	if err := h.cp.AddVIP(0, vip, poolN(8), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		res := h.send(ms(i*2), tupleN(i), netproto.FlagSYN)
		if res.Verdict != dataplane.VerdictForward {
			t.Fatalf("SYN %d left unresolved: %v", i, res.Verdict)
		}
		h.cp.Advance(ms(i*2 + 1))
	}
	h.cp.Advance(ms(500))
	m := h.cp.Metrics()
	if m.DigestFPsResolved == 0 {
		t.Fatal("1-bit digests produced no collisions (implausible)")
	}
	// All 200 connections are tracked and installed (via learn pipeline or
	// inline redirect resolution).
	if got := h.cp.TrackedConns(); got != 200 {
		t.Fatalf("TrackedConns = %d, want 200", got)
	}
}

func TestNoFalseHitsAt16BitDigest(t *testing.T) {
	// At the paper's 16-bit operating point, thousands of connections see
	// no digest collisions and PCC holds trivially.
	h := defaultHarness(t)
	for i := 0; i < 2000; i++ {
		at := simtime.Time(i) * simtime.Time(10*simtime.Microsecond)
		h.send(at, tupleN(i), netproto.FlagSYN)
	}
	h.cp.Advance(ms(200))
	for i := 0; i < 2000; i++ {
		h.send(ms(201), tupleN(i), netproto.FlagACK)
	}
	if h.violations != 0 {
		t.Fatalf("violations = %d", h.violations)
	}
	if h.cp.Metrics().DigestFPsResolved != 0 {
		t.Fatalf("unexpected collisions at 16-bit digests: %d", h.cp.Metrics().DigestFPsResolved)
	}
}

func TestRetransmittedSYNNotTreatedAsCollision(t *testing.T) {
	h := defaultHarness(t)
	tup := tupleN(3)
	h.send(0, tup, netproto.FlagSYN)
	h.cp.Advance(ms(5))
	res := h.send(ms(6), tup, netproto.FlagSYN) // retransmit after install
	if res.Verdict != dataplane.VerdictForward {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	m := h.cp.Metrics()
	if m.RetransmittedSYNs != 1 || m.DigestFPsResolved != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestBloomFPResolvedDuringTransition(t *testing.T) {
	dcfg := dataplane.DefaultConfig(10000)
	dcfg.TransitTableBytes = 8
	dcfg.TransitTableHashes = 1
	h := newHarness(t, dcfg, DefaultConfig())
	vip := testVIP()
	h.cp.AddVIP(0, vip, poolN(8), 0)
	// Saturate the tiny filter with pending conns during recording.
	h.cp.RequestUpdate(ms(1), vip, poolN(7))
	for i := 0; i < 300; i++ {
		h.send(ms(1).Add(simtime.Duration(i)*simtime.Microsecond), tupleN(i), netproto.FlagSYN)
	}
	// Let the update reach step 2, then send brand-new SYNs: bloom FPs
	// must be arbitrated to the new version with entries installed.
	h.cp.Advance(ms(40))
	if !h.sw.InUpdate(vip) {
		t.Skip("update finished before step-2 window could be probed")
	}
	for i := 300; i < 360; i++ {
		res := h.send(ms(41), tupleN(i), netproto.FlagSYN)
		if res.Verdict != dataplane.VerdictForward {
			t.Fatalf("unresolved verdict %v", res.Verdict)
		}
	}
	if h.cp.Metrics().BloomFPsResolved == 0 {
		t.Fatal("saturated filter produced no resolved FPs")
	}
	if h.violations != 0 {
		t.Fatalf("violations = %d", h.violations)
	}
}

func TestAgingSweep(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.AgingTimeout = simtime.Duration(10 * simtime.Second)
	h := newHarness(t, dataplane.DefaultConfig(10000), ccfg)
	h.cp.AddVIP(0, testVIP(), poolN(4), 0)
	tup := tupleN(1)
	h.send(0, tup, netproto.FlagSYN)
	h.cp.Advance(ms(10))
	if h.cp.TrackedConns() != 1 {
		t.Fatalf("TrackedConns = %d", h.cp.TrackedConns())
	}
	h.cp.Advance(simtime.Time(30 * simtime.Second))
	if h.cp.TrackedConns() != 0 {
		t.Fatal("idle connection not aged out")
	}
	if h.cp.Metrics().AgedOut != 1 {
		t.Fatalf("AgedOut = %d", h.cp.Metrics().AgedOut)
	}
}

func TestRemoveVIPCleansUp(t *testing.T) {
	h := defaultHarness(t)
	vip := testVIP()
	tup := tupleN(1)
	h.send(0, tup, netproto.FlagSYN)
	h.cp.Advance(ms(5))
	if err := h.cp.RemoveVIP(ms(6), vip); err != nil {
		t.Fatal(err)
	}
	if h.cp.TrackedConns() != 0 {
		t.Fatal("shadows survived RemoveVIP")
	}
	if h.sw.HasVIP(vip) {
		t.Fatal("VIP survived in dataplane")
	}
	if err := h.cp.RemoveVIP(ms(7), vip); err != dataplane.ErrUnknownVIP {
		t.Fatalf("double remove: %v", err)
	}
}

// TestRemoveVIPDropsQueuedUpdates: requests queued behind an in-flight update
// die with their VIP. Finishing the in-flight one used to start the next on
// the VIP being deleted, leaving ActiveUpdates (and so PendingWork and the
// shared TransitTable) stuck at one with no VIP left to finish it.
func TestRemoveVIPDropsQueuedUpdates(t *testing.T) {
	h := defaultHarness(t)
	vip := testVIP()
	h.send(0, tupleN(1), netproto.FlagSYN) // pending: holds the first update in its recording step
	for n := 7; n >= 5; n-- {
		if err := h.cp.RequestUpdate(1000, vip, poolN(n)); err != nil {
			t.Fatal(err)
		}
	}
	if a, q := h.cp.ActiveUpdates(), h.cp.QueuedUpdates(); a != 1 || q != 2 {
		t.Fatalf("before RemoveVIP: %d active, %d queued; want 1 and 2", a, q)
	}
	if err := h.cp.RemoveVIP(2000, vip); err != nil {
		t.Fatal(err)
	}
	h.cp.Advance(ms(500))
	if a, q, p := h.cp.ActiveUpdates(), h.cp.QueuedUpdates(), h.cp.PendingWork(); a != 0 || q != 0 || p != 0 {
		t.Fatalf("after RemoveVIP: %d active, %d queued, %d pending; want none", a, q, p)
	}
	if at, ok := h.cp.nextTransition(); ok {
		t.Fatalf("a transition is still due at %v with no VIP left", at)
	}
	if got := h.cp.Metrics().UpdatesCompleted; got != 1 {
		t.Fatalf("UpdatesCompleted = %d, want only the in-flight one", got)
	}
}

func TestNextEventTime(t *testing.T) {
	h := defaultHarness(t)
	if _, ok := h.cp.NextEventTime(); ok {
		t.Fatal("fresh control plane has scheduled work")
	}
	h.send(0, tupleN(1), netproto.FlagSYN)
	at, ok := h.cp.NextEventTime()
	if !ok {
		t.Fatal("no event after learn offer")
	}
	if at != simtime.Time(simtime.Millisecond) {
		t.Fatalf("next event = %v, want 1ms flush", at)
	}
}

func TestErrorPaths(t *testing.T) {
	h := defaultHarness(t)
	other := dataplane.VIP{Addr: netip.MustParseAddr("9.9.9.9"), Port: 1, Proto: netproto.ProtoTCP}
	if err := h.cp.RequestUpdate(0, other, poolN(2)); err != dataplane.ErrUnknownVIP {
		t.Fatalf("unknown vip update: %v", err)
	}
	if err := h.cp.AddDIP(0, other, poolN(1)[0]); err != dataplane.ErrUnknownVIP {
		t.Fatalf("unknown vip adddip: %v", err)
	}
	if err := h.cp.RemoveDIP(0, testVIP(), netip.MustParseAddrPort("1.1.1.1:1")); err == nil {
		t.Fatal("removing absent DIP succeeded")
	}
	if err := h.cp.RequestUpdate(0, testVIP(), nil); err == nil {
		t.Fatal("empty pool accepted")
	}
	if err := h.cp.AddVIP(0, testVIP(), poolN(2), 0); err != dataplane.ErrVIPExists {
		t.Fatalf("duplicate AddVIP: %v", err)
	}
	if err := h.cp.AddVIP(0, other, nil, 0); err == nil {
		t.Fatal("empty initial pool accepted")
	}
	if _, err := h.cp.CurrentPool(other); err != dataplane.ErrUnknownVIP {
		t.Fatalf("CurrentPool unknown: %v", err)
	}
}

func BenchmarkInsertionPipeline(b *testing.B) {
	sw, _ := dataplane.New(dataplane.DefaultConfig(1_000_000))
	cp := New(sw, DefaultConfig())
	cp.AddVIP(0, testVIP(), poolN(16), 0)
	b.ResetTimer()
	now := simtime.Time(0)
	for i := 0; i < b.N; i++ {
		var res dataplane.Result
		processFrame(cp, now, frameOf(&netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagSYN}), &res)
		now = now.Add(simtime.Duration(10 * simtime.Microsecond))
	}
}
