package hybrid

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/slb"
)

func vip() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func pool(n int) []dataplane.DIP {
	out := make([]dataplane.DIP, n)
	for i := range out {
		out[i] = netip.MustParseAddrPort(fmt.Sprintf("10.0.0.%d:20", i+1))
	}
	return out
}

func tup(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{1, byte(i >> 16), byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: netproto.ProtoTCP,
	}
}

func ms(n int) simtime.Time { return simtime.Time(n) * simtime.Time(simtime.Millisecond) }

func newHybrid(t *testing.T, connCap int) *Balancer {
	t.Helper()
	dcfg := dataplane.DefaultConfig(connCap)
	b, err := New(dcfg, ctrlplane.DefaultConfig(), slb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddVIP(0, vip(), pool(8)); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNoOverflowStaysInHardware(t *testing.T) {
	b := newHybrid(t, 100000)
	for i := 0; i < 200; i++ {
		pkt := &netproto.Packet{Tuple: tup(i), TCPFlags: netproto.FlagSYN}
		if _, ok := b.Packet(simtime.Time(i)*1000, pkt); !ok {
			t.Fatal("packet dropped")
		}
	}
	b.Advance(ms(10))
	for i := 0; i < 200; i++ {
		pkt := &netproto.Packet{Tuple: tup(i), TCPFlags: netproto.FlagACK}
		b.Packet(ms(11), pkt)
	}
	s := b.Stats()
	if s.SoftwarePkts != 0 || s.OverflowConns != 0 {
		t.Fatalf("unnecessary software involvement: %+v", s)
	}
	if b.SoftwareShare() != 0 {
		t.Fatal("software share nonzero")
	}
}

// TestOverflowPinnedWithPCC is the §7 scenario: more connections than the
// hardware table holds. Overflow connections must be served in software
// with their ORIGINAL hardware-hashed DIP, and must survive a pool update
// (which would remap unpinned VIPTable traffic) without moving.
func TestOverflowPinnedWithPCC(t *testing.T) {
	b := newHybrid(t, 256) // tiny hardware table
	const conns = 2000
	first := map[int]dataplane.DIP{}
	now := simtime.Time(0)
	for i := 0; i < conns; i++ {
		pkt := &netproto.Packet{Tuple: tup(i), TCPFlags: netproto.FlagSYN}
		dip, ok := b.Packet(now, pkt)
		if !ok {
			t.Fatalf("conn %d dropped", i)
		}
		first[i] = dip
		now = now.Add(simtime.Duration(20 * simtime.Microsecond))
	}
	now = now.Add(simtime.Duration(simtime.Second))
	b.Advance(now)
	if b.Stats().OverflowConns == 0 {
		t.Fatal("no overflow with 2000 conns into 256-entry table")
	}
	// Pool update: unpinned traffic would remap; both the hardware-cached
	// and the SLB-pinned connections must keep their DIPs.
	if err := b.Update(now, vip(), pool(7)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(simtime.Duration(100 * simtime.Millisecond))
	b.Advance(now)
	moved := 0
	for i := 0; i < conns; i++ {
		pkt := &netproto.Packet{Tuple: tup(i), TCPFlags: netproto.FlagACK}
		dip, ok := b.Packet(now, pkt)
		if !ok {
			continue
		}
		if dip != first[i] {
			moved++
		}
	}
	// The removed DIP's connections legitimately move; nothing else may.
	removed := pool(8)[7]
	excusable := 0
	for i := 0; i < conns; i++ {
		if first[i] == removed {
			excusable++
		}
	}
	if moved > excusable {
		t.Fatalf("%d conns moved but only %d pointed at the removed DIP", moved, excusable)
	}
	if b.Stats().SoftwarePkts == 0 {
		t.Fatal("overflow conns never served in software")
	}
	share := b.SoftwareShare()
	if share <= 0 || share >= 1 {
		t.Fatalf("software share = %.3f", share)
	}
}

func TestConnEndReleasesBothTiers(t *testing.T) {
	b := newHybrid(t, 256)
	now := simtime.Time(0)
	for i := 0; i < 1000; i++ {
		b.Packet(now, &netproto.Packet{Tuple: tup(i), TCPFlags: netproto.FlagSYN})
		now = now.Add(simtime.Duration(20 * simtime.Microsecond))
	}
	now = now.Add(simtime.Duration(simtime.Second))
	b.Advance(now)
	if b.soft.Conns() == 0 {
		t.Fatal("no SLB pins")
	}
	for i := 0; i < 1000; i++ {
		b.ConnEnd(now, tup(i))
	}
	if b.soft.Conns() != 0 {
		t.Fatalf("SLB still holds %d conns", b.soft.Conns())
	}
	if n := b.eng.Stats().Connections; n != 0 {
		t.Fatalf("switch software still tracks %d conns", n)
	}
}

func TestOverflowHookChaining(t *testing.T) {
	dcfg := dataplane.DefaultConfig(256)
	ccfg := ctrlplane.DefaultConfig()
	called := 0
	ccfg.OnOverflow = func(simtime.Time, netproto.FiveTuple, dataplane.DIP) { called++ }
	b, err := New(dcfg, ccfg, slb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.AddVIP(0, vip(), pool(4))
	now := simtime.Time(0)
	for i := 0; i < 1500; i++ {
		b.Packet(now, &netproto.Packet{Tuple: tup(i), TCPFlags: netproto.FlagSYN})
		now = now.Add(simtime.Duration(20 * simtime.Microsecond))
	}
	b.Advance(now.Add(simtime.Duration(simtime.Second)))
	if called == 0 {
		t.Fatal("user overflow hook not chained")
	}
	if uint64(called) != b.Stats().OverflowConns {
		t.Fatalf("hook calls %d != overflow conns %d", called, b.Stats().OverflowConns)
	}
}

// TestEstablishedPacketZeroAlloc: a packet of a connection cached in the
// hardware ConnTable runs through the balancer's one-frame batch without
// allocating.
func TestEstablishedPacketZeroAlloc(t *testing.T) {
	b := newHybrid(t, 1000)
	pkt := &netproto.Packet{Tuple: tup(1), TCPFlags: netproto.FlagSYN}
	if _, ok := b.Packet(0, pkt); !ok {
		t.Fatal("SYN not forwarded")
	}
	b.Advance(ms(10))
	pkt.TCPFlags = netproto.FlagACK
	b.Packet(ms(10), pkt)
	if !b.res[0].ConnHit {
		t.Fatal("connection not installed")
	}
	if n := testing.AllocsPerRun(100, func() { b.Packet(ms(10), pkt) }); n != 0 {
		t.Fatalf("established packet: %v allocs, want 0", n)
	}
}
