package dataplane

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/netproto"
	"repro/internal/simtime"
)

func testVIP() VIP {
	return VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func testPool(n int) []DIP {
	out := make([]DIP, n)
	for i := range out {
		out[i] = netip.MustParseAddrPort(fmt.Sprintf("10.0.0.%d:20", i+1))
	}
	return out
}

func clientTuple(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{1, 2, byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: uint16(1024 + i%50000),
		DstPort: 80,
		Proto:   netproto.ProtoTCP,
	}
}

// processPacket runs pkt through s as its synthetic frame (Packet.Frame):
// the tests build packets and convert them at their own edge.
func processPacket(s *Switch, now simtime.Time, pkt *netproto.Packet) Result {
	var f netproto.Frame
	pkt.Frame(&f)
	return s.ProcessFrame(now, &f)
}

func newTestSwitch(t *testing.T) *Switch {
	t.Helper()
	cfg := DefaultConfig(100000)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallVIP(testVIP(), 0, testPool(4), 0); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProcessNoVIP(t *testing.T) {
	s := newTestSwitch(t)
	pkt := &netproto.Packet{Tuple: clientTuple(1)}
	pkt.Tuple.Dst = netip.MustParseAddr("99.99.99.99")
	res := processPacket(s, 0, pkt)
	if res.Verdict != VerdictNoVIP {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if s.Stats().NoVIP != 1 {
		t.Fatal("NoVIP counter not bumped")
	}
}

func TestProcessMissSelectsAndLearns(t *testing.T) {
	s := newTestSwitch(t)
	pkt := &netproto.Packet{Tuple: clientTuple(1), TCPFlags: netproto.FlagSYN}
	res := processPacket(s, 0, pkt)
	if res.Verdict != VerdictForward {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.ConnHit {
		t.Fatal("fresh connection hit ConnTable")
	}
	if !res.Learned {
		t.Fatal("miss did not trigger learning")
	}
	if !res.DIP.IsValid() {
		t.Fatal("no DIP selected")
	}
	if res.Version != 0 {
		t.Fatalf("version = %d, want current 0", res.Version)
	}
	if s.LearnFilter().Len() != 1 {
		t.Fatal("learn filter empty")
	}
}

func TestProcessConsistentSelectionBeforeInsertion(t *testing.T) {
	s := newTestSwitch(t)
	tup := clientTuple(7)
	first := processPacket(s, 0, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
	for i := 0; i < 10; i++ {
		res := processPacket(s, simtime.Time(i)*100, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagACK})
		if res.DIP != first.DIP {
			t.Fatalf("pending packets diverged: %v vs %v", res.DIP, first.DIP)
		}
		if res.ConnHit {
			t.Fatal("no entry was installed; cannot hit")
		}
	}
	// Duplicate learn events must be suppressed while buffered.
	if s.LearnFilter().Len() != 1 {
		t.Fatalf("filter holds %d events, want 1", s.LearnFilter().Len())
	}
}

func TestProcessHitAfterInsert(t *testing.T) {
	s := newTestSwitch(t)
	tup := clientTuple(3)
	res1 := processPacket(s, 0, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
	if err := s.InsertConn(tup, res1.Version); err != nil {
		t.Fatal(err)
	}
	res2 := processPacket(s, 100, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagACK})
	if !res2.ConnHit {
		t.Fatal("packet after insertion missed ConnTable")
	}
	if res2.DIP != res1.DIP {
		t.Fatalf("DIP changed across insertion: %v vs %v", res2.DIP, res1.DIP)
	}
	if v, ok := s.LookupConn(tup); !ok || v != res1.Version {
		t.Fatalf("LookupConn = (%d,%v)", v, ok)
	}
}

func TestSYNOnExistingEntryRedirects(t *testing.T) {
	s := newTestSwitch(t)
	tup := clientTuple(4)
	processPacket(s, 0, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
	s.InsertConn(tup, 0)
	res := processPacket(s, 10, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
	if res.Verdict != VerdictRedirectSYNConn {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	// CPU arbitration: same connection -> retransmitted SYN, no relocation.
	fixed, err := s.ResolveSYNCollision(tup, res)
	if err != nil {
		t.Fatal(err)
	}
	if fixed {
		t.Fatal("retransmitted SYN misdiagnosed as digest collision")
	}
}

func TestUpdateFlowVersions(t *testing.T) {
	s := newTestSwitch(t)
	vip := testVIP()
	// Prepare version 1 with a different pool.
	if err := s.WritePool(vip, 1, testPool(3)); err != nil {
		t.Fatal(err)
	}
	// Step 1: record pending connections.
	if err := s.SetRecording(vip, true); err != nil {
		t.Fatal(err)
	}
	pending := clientTuple(10)
	resOld := processPacket(s, 0, &netproto.Packet{Tuple: pending, TCPFlags: netproto.FlagSYN})
	if resOld.Version != 0 {
		t.Fatalf("recording phase version = %d", resOld.Version)
	}
	if s.TransitInserts() != 1 {
		t.Fatalf("TransitInserts = %d", s.TransitInserts())
	}
	// Step 2: swap versions.
	if err := s.BeginTransition(vip, 1); err != nil {
		t.Fatal(err)
	}
	if !s.InUpdate(vip) {
		t.Fatal("InUpdate false after BeginTransition")
	}
	// The pending connection (still no ConnTable entry) must stay on v0.
	res := processPacket(s, 100, &netproto.Packet{Tuple: pending, TCPFlags: netproto.FlagACK})
	if res.Version != 0 || !res.TransitHit {
		t.Fatalf("pending conn got version %d (transitHit=%v), want 0", res.Version, res.TransitHit)
	}
	if res.DIP != resOld.DIP {
		t.Fatal("pending connection changed DIP across the update — PCC violation")
	}
	// A brand-new connection maps to v1.
	fresh := clientTuple(11)
	resNew := processPacket(s, 200, &netproto.Packet{Tuple: fresh, TCPFlags: netproto.FlagSYN})
	if resNew.Version != 1 {
		t.Fatalf("fresh conn version = %d, want 1", resNew.Version)
	}
	// Step 3.
	if err := s.EndTransition(vip); err != nil {
		t.Fatal(err)
	}
	s.ClearTransit()
	if s.InUpdate(vip) {
		t.Fatal("still in update after EndTransition")
	}
}

func TestNewSYNDuringTransitionRedirectsOnBloomHit(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.TransitTableBytes = 8 // tiny filter: force false positives
	cfg.TransitTableHashes = 1
	s, _ := New(cfg)
	vip := testVIP()
	s.InstallVIP(vip, 0, testPool(4), 0)
	s.WritePool(vip, 1, testPool(3))
	s.SetRecording(vip, true)
	// Record many pending connections to saturate the 8B filter.
	for i := 0; i < 500; i++ {
		processPacket(s, simtime.Time(i), &netproto.Packet{Tuple: clientTuple(i), TCPFlags: netproto.FlagSYN})
	}
	s.BeginTransition(vip, 1)
	// New SYNs now falsely hit the bloom and must be redirected.
	redirects := 0
	for i := 500; i < 600; i++ {
		res := processPacket(s, simtime.Time(i), &netproto.Packet{Tuple: clientTuple(i), TCPFlags: netproto.FlagSYN})
		if res.Verdict == VerdictRedirectSYNTransit {
			redirects++
		}
	}
	if redirects == 0 {
		t.Fatal("saturated 8B filter produced no SYN redirects")
	}
	if s.Stats().SYNRedirectTransit == 0 {
		t.Fatal("redirect counter not bumped")
	}
}

func TestDisableTransitAblation(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.DisableTransit = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	s.InstallVIP(vip, 0, testPool(4), 0)
	s.WritePool(vip, 1, testPool(3))
	s.SetRecording(vip, true) // no-op without a filter
	pending := clientTuple(1)
	resOld := processPacket(s, 0, &netproto.Packet{Tuple: pending, TCPFlags: netproto.FlagSYN})
	s.BeginTransition(vip, 1)
	res := processPacket(s, 10, &netproto.Packet{Tuple: pending, TCPFlags: netproto.FlagACK})
	if res.Version != 1 {
		t.Fatalf("without TransitTable, pending conn version = %d, want 1 (the hazard)", res.Version)
	}
	_ = resOld
	if s.TransitInserts() != 0 {
		t.Fatal("disabled filter recorded inserts")
	}
}

func TestMeterDropsExcessTraffic(t *testing.T) {
	s, _ := New(DefaultConfig(1000))
	vip := testVIP()
	// 1 KB/s committed rate: the second large burst packet must go red.
	if err := s.InstallVIP(vip, 0, testPool(2), 1000); err != nil {
		t.Fatal(err)
	}
	tup := clientTuple(1)
	drops := 0
	for i := 0; i < 100; i++ {
		res := processPacket(s, 0, &netproto.Packet{Tuple: tup, Payload: make([]byte, 1000)})
		if res.Verdict == VerdictMeterDrop {
			drops++
		}
	}
	if drops < 90 {
		t.Fatalf("meter dropped %d of 100 burst packets, want >= 90", drops)
	}
}

func TestPoolManagement(t *testing.T) {
	s := newTestSwitch(t)
	vip := testVIP()
	if err := s.WritePool(vip, 2, testPool(5)); err != nil {
		t.Fatal(err)
	}
	p, err := s.Pool(vip, 2)
	if err != nil || len(p) != 5 {
		t.Fatalf("Pool = %v, %v", p, err)
	}
	vers, _ := s.PoolVersions(vip)
	if len(vers) != 2 {
		t.Fatalf("PoolVersions = %v", vers)
	}
	if err := s.DeletePool(vip, 0); err != ErrPoolInUse {
		t.Fatalf("deleting current pool: %v", err)
	}
	if err := s.DeletePool(vip, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pool(vip, 2); err != ErrUnknownVersion {
		t.Fatalf("Pool after delete: %v", err)
	}
	if cur, _ := s.CurrentVersion(vip); cur != 0 {
		t.Fatalf("CurrentVersion = %d", cur)
	}
}

func TestVIPManagementErrors(t *testing.T) {
	s := newTestSwitch(t)
	vip := testVIP()
	if err := s.InstallVIP(vip, 1, testPool(1), 0); err != ErrVIPExists {
		t.Fatalf("duplicate InstallVIP: %v", err)
	}
	other := VIP{Addr: netip.MustParseAddr("20.0.0.2"), Port: 80, Proto: netproto.ProtoTCP}
	if err := s.WritePool(other, 0, testPool(1)); err != ErrUnknownVIP {
		t.Fatalf("WritePool unknown VIP: %v", err)
	}
	if err := s.BeginTransition(vip, 63); err != ErrUnknownVersion {
		t.Fatalf("BeginTransition unknown version: %v", err)
	}
	if err := s.InstallVIP(other, 64, testPool(1), 0); err == nil {
		t.Fatal("version beyond 6-bit field accepted")
	}
	if err := s.RemoveVIP(other); err != ErrUnknownVIP {
		t.Fatalf("RemoveVIP unknown: %v", err)
	}
	if err := s.RemoveVIP(vip); err != nil {
		t.Fatal(err)
	}
	if s.HasVIP(vip) {
		t.Fatal("VIP survives RemoveVIP")
	}
}

func TestDeleteConn(t *testing.T) {
	s := newTestSwitch(t)
	tup := clientTuple(9)
	s.InsertConn(tup, 0)
	if !s.DeleteConn(tup) {
		t.Fatal("DeleteConn returned false")
	}
	if s.DeleteConn(tup) {
		t.Fatal("double delete returned true")
	}
}

func TestSelectDIPStableWithinVersion(t *testing.T) {
	s := newTestSwitch(t)
	vip := testVIP()
	tup := clientTuple(2)
	d1, err := s.SelectDIP(vip, 0, tup)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := s.SelectDIP(vip, 0, tup)
	if d1 != d2 {
		t.Fatal("selection not deterministic")
	}
	if _, err := s.SelectDIP(vip, 42, tup); err == nil {
		t.Fatal("unknown version accepted")
	}
}

func TestMemoryBreakdown(t *testing.T) {
	s := newTestSwitch(t)
	m := s.Memory()
	if m.ConnTableBytes == 0 || m.TransitBytes != 256 || m.VIPTableBytes == 0 {
		t.Fatalf("Memory = %+v", m)
	}
	if m.DIPPoolBytes != 4*6 { // 4 IPv4 DIPs x 6 B
		t.Fatalf("DIPPoolBytes = %d", m.DIPPoolBytes)
	}
	if m.Total() <= m.ConnTableBytes {
		t.Fatal("Total not summing")
	}
}

func TestLayoutModels(t *testing.T) {
	// Paper: naive IPv6 layout needs ~550 MB for 10M conns.
	naive := LayoutNaive(true)
	if mb := float64(naive.TableBytes(10_000_000)) / (1 << 20); mb < 500 || mb > 600 {
		t.Fatalf("naive 10M IPv6 = %.0f MB, want ~550", mb)
	}
	// SilkRoad layout: 28-bit entries, 4 per word.
	sr := LayoutDigestVersion(16, 6)
	if sr.EntryBits != 28 {
		t.Fatalf("EntryBits = %d", sr.EntryBits)
	}
	if got := sr.TableBytes(4); got != 14 { // one 112-bit word
		t.Fatalf("4 entries = %d bytes, want 14", got)
	}
	// 10M conns at 28b packed: 10M/4 words x 14B = 35 MB.
	if mb := float64(sr.TableBytes(10_000_000)) / (1 << 20); mb > 40 {
		t.Fatalf("SilkRoad 10M = %.0f MB, want ~33", mb)
	}
	// digest-only sits in between.
	d := LayoutDigestOnly(16, true)
	if d.EntryBits <= sr.EntryBits || d.EntryBits >= naive.EntryBits {
		t.Fatalf("digest-only entry bits = %d out of order", d.EntryBits)
	}
	if LayoutNaive(false).TableBytes(0) != 0 {
		t.Fatal("zero entries should cost zero")
	}
}

func TestProvisionedBytesFigure12Scale(t *testing.T) {
	// Peak Backend cluster: 15M IPv6 conns, 64 versions x 4187 DIPs.
	got := ProvisionedBytes(15_000_000, 16, 6, 64*4187, true)
	mb := float64(got) / (1 << 20)
	if mb < 40 || mb > 75 {
		t.Fatalf("peak Backend provisioning = %.1f MB, paper says ~58", mb)
	}
}

func TestVIPString(t *testing.T) {
	if testVIP().String() != "20.0.0.1:80/tcp" {
		t.Fatalf("VIP.String = %s", testVIP())
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	// A ConnTable entry is one 32-bit word: occupied bit, version, digest.
	// Widths that do not fit are an error here, not a panic in cuckoo.New.
	for _, w := range []struct{ digest, version int }{
		{16, 99}, {16, 0}, {0, 6}, {-1, 6}, {16, 16}, {24, 8}, {32, 1},
	} {
		cfg := DefaultConfig(100)
		cfg.DigestBits, cfg.VersionBits = w.digest, w.version
		if _, err := New(cfg); err == nil {
			t.Fatalf("%d digest bits + %d version bits accepted", w.digest, w.version)
		}
	}
	for _, w := range []struct{ digest, version int }{{16, 6}, {24, 6}, {16, 15}, {24, 7}} {
		cfg := DefaultConfig(100)
		cfg.DigestBits, cfg.VersionBits = w.digest, w.version
		if _, err := New(cfg); err != nil {
			t.Fatalf("%d digest bits + %d version bits: %v", w.digest, w.version, err)
		}
	}
}

func BenchmarkProcessHit(b *testing.B) {
	cfg := DefaultConfig(100000)
	s, _ := New(cfg)
	s.InstallVIP(testVIP(), 0, testPool(16), 0)
	tup := clientTuple(1)
	processPacket(s, 0, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
	s.InsertConn(tup, 0)
	pkt := &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagACK}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		processPacket(s, simtime.Time(i), pkt)
	}
}

func BenchmarkProcessMiss(b *testing.B) {
	cfg := DefaultConfig(100000)
	s, _ := New(cfg)
	s.InstallVIP(testVIP(), 0, testPool(16), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &netproto.Packet{Tuple: clientTuple(i), TCPFlags: netproto.FlagSYN}
		processPacket(s, simtime.Time(i), pkt)
		if s.LearnFilter().Full() {
			s.LearnFilter().Drain()
		}
	}
}
