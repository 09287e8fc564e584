package dataplane

// Regression tests for pipeline-correctness fixes: empty-pool drops and
// wire-length metering.

import (
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/netproto"
	"repro/internal/simtime"
)

// TestEmptyPoolDrops asserts that a packet whose VIP resolves to an empty
// DIP pool version is dropped with VerdictNoBackend rather than forwarded
// to a zero-valued DIP{}.
func TestEmptyPoolDrops(t *testing.T) {
	sw, err := New(DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := sw.InstallVIP(vip, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	pkt := &netproto.Packet{Tuple: clientTuple(1), TCPFlags: netproto.FlagSYN}
	res := processPacket(sw, 0, pkt)
	if res.Verdict != VerdictNoBackend {
		t.Fatalf("empty pool: verdict = %v, want %v", res.Verdict, VerdictNoBackend)
	}
	if res.DIP.IsValid() {
		t.Fatalf("empty pool: DIP = %v, want invalid", res.DIP)
	}
	if sw.Stats().NoBackend != 1 {
		t.Fatalf("NoBackend counter = %d, want 1", sw.Stats().NoBackend)
	}
	// Dropped connections must not be learned: installing ConnTable state
	// for an unroutable connection would waste SRAM and CPU.
	if res.Learned || sw.Stats().LearnOffers != 0 {
		t.Fatalf("empty-pool drop generated a learn event: %+v", res)
	}
	// Non-SYN traffic drops the same way.
	data := &netproto.Packet{Tuple: clientTuple(2), TCPFlags: netproto.FlagACK}
	if res := processPacket(sw, 0, data); res.Verdict != VerdictNoBackend {
		t.Fatalf("data packet: verdict = %v, want %v", res.Verdict, VerdictNoBackend)
	}
}

// TestEmptyPoolDropsOnConnHit covers the ConnTable-hit path: a connection
// pinned to a version whose pool row was later emptied must drop, not
// forward to DIP{}.
func TestEmptyPoolDropsOnConnHit(t *testing.T) {
	sw, err := New(DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := sw.InstallVIP(vip, 0, testPool(4), 0); err != nil {
		t.Fatal(err)
	}
	tup := clientTuple(7)
	if err := sw.InsertConn(tup, 0); err != nil {
		t.Fatal(err)
	}
	pkt := &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagACK}
	if res := processPacket(sw, 0, pkt); res.Verdict != VerdictForward || !res.ConnHit {
		t.Fatalf("sanity: verdict = %v (connHit=%v), want forward hit", res.Verdict, res.ConnHit)
	}
	if err := sw.WritePool(vip, 0, nil); err != nil {
		t.Fatal(err)
	}
	res := processPacket(sw, 0, pkt)
	if res.Verdict != VerdictNoBackend {
		t.Fatalf("hit on emptied pool: verdict = %v, want %v", res.Verdict, VerdictNoBackend)
	}
}

// TestMeterChargesWireLength asserts the VIP meter charges the packet's
// actual framed length (IPv4/IPv6 x TCP/UDP) rather than a hardcoded
// 40-byte header guess. An IPv6 UDP packet is 48 B on the wire with an
// empty payload; with CBS = EBS = 41 B it must be marked red immediately,
// while the same flow over IPv4 (28 B) passes.
func TestMeterChargesWireLength(t *testing.T) {
	sw, err := New(DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	// meterBytesPerSec r gives CBS = EBS = r/100.
	const rate = 4100 // CBS = EBS = 41 B

	vip6 := VIP{Addr: netip.MustParseAddr("2001:db8::1"), Port: 53, Proto: netproto.ProtoUDP}
	pool6 := []DIP{netip.MustParseAddrPort("[2001:db8::10]:53")}
	if err := sw.InstallVIP(vip6, 0, pool6, rate); err != nil {
		t.Fatal(err)
	}
	p6 := &netproto.Packet{Tuple: netproto.FiveTuple{
		Src: netip.MustParseAddr("2001:db8::99"), Dst: vip6.Addr,
		SrcPort: 4242, DstPort: 53, Proto: netproto.ProtoUDP,
	}}
	if got := p6.WireLen(); got != 48 {
		t.Fatalf("IPv6 UDP WireLen = %d, want 48", got)
	}
	if res := processPacket(sw, 0, p6); res.Verdict != VerdictMeterDrop {
		t.Fatalf("IPv6 UDP at 48 B vs 41 B burst: verdict = %v, want %v",
			res.Verdict, VerdictMeterDrop)
	}

	vip4 := VIP{Addr: netip.MustParseAddr("20.0.0.9"), Port: 53, Proto: netproto.ProtoUDP}
	pool4 := []DIP{netip.MustParseAddrPort("10.0.0.1:53")}
	if err := sw.InstallVIP(vip4, 0, pool4, rate); err != nil {
		t.Fatal(err)
	}
	p4 := &netproto.Packet{Tuple: netproto.FiveTuple{
		Src: netip.MustParseAddr("1.2.3.4"), Dst: vip4.Addr,
		SrcPort: 4242, DstPort: 53, Proto: netproto.ProtoUDP,
	}}
	if got := p4.WireLen(); got != 28 {
		t.Fatalf("IPv4 UDP WireLen = %d, want 28", got)
	}
	if res := processPacket(sw, 0, p4); res.Verdict != VerdictForward {
		t.Fatalf("IPv4 UDP at 28 B vs 41 B burst: verdict = %v, want forward", res.Verdict)
	}

	// TCP framing is charged too: 20 B IPv4 + 20 B TCP = 40 B fits a 41 B
	// burst once, and the bucket refills at CIR for the next second.
	vipT := VIP{Addr: netip.MustParseAddr("20.0.0.10"), Port: 80, Proto: netproto.ProtoTCP}
	if err := sw.InstallVIP(vipT, 0, []DIP{netip.MustParseAddrPort("10.0.0.2:80")}, rate); err != nil {
		t.Fatal(err)
	}
	pT := &netproto.Packet{Tuple: netproto.FiveTuple{
		Src: netip.MustParseAddr("1.2.3.5"), Dst: vipT.Addr,
		SrcPort: 999, DstPort: 80, Proto: netproto.ProtoTCP,
	}, TCPFlags: netproto.FlagSYN, Payload: []byte{1, 2}}
	if got := pT.WireLen(); got != 42 {
		t.Fatalf("IPv4 TCP +2B payload WireLen = %d, want 42", got)
	}
	if res := processPacket(sw, simtime.Time(0), pT); res.Verdict != VerdictMeterDrop {
		t.Fatalf("IPv4 TCP at 42 B vs 41 B burst: verdict = %v, want %v",
			res.Verdict, VerdictMeterDrop)
	}
}

// TestStatsAddOntoZeroIsIdentity guards the aggregation every facade
// counter flows through, one pipe included: a field added to Stats and
// forgotten in Add would read zero from Switch.Stats with nothing else
// noticing.
func TestStatsAddOntoZeroIsIdentity(t *testing.T) {
	var want Stats
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var got Stats
	got.Add(want)
	if got != want {
		t.Fatalf("Add onto the zero value lost a field:\n got %+v\nwant %+v", got, want)
	}
}
