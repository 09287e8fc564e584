package silkroad

import (
	"net/netip"
	"testing"

	"repro/internal/netproto"
)

func testVIP() VIP { return NewVIP("20.0.0.1", 80, TCP) }

func newSwitch(t *testing.T) *Switch {
	t.Helper()
	sw, err := NewSwitch(Defaults(100000))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		t.Fatal(err)
	}
	return sw
}

func clientPkt(i int, flags uint8) *Packet {
	return &Packet{
		Tuple: FiveTuple{
			Src:     netip.AddrFrom4([4]byte{1, 2, byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("20.0.0.1"),
			SrcPort: uint16(1024 + i),
			DstPort: 80,
			Proto:   TCP,
		},
		TCPFlags: flags,
	}
}

// process runs pkt through sw's single-frame entry point as its synthetic
// frame (Packet.Frame): the tests build packets and convert them at their
// own edge.
func process(sw *Switch, now Time, pkt *Packet) Result {
	var f Frame
	pkt.Frame(&f)
	return sw.ProcessFrame(now, &f)
}

// processBatch runs pkts through sw as one batch of synthetic frames.
func processBatch(sw *Switch, now Time, pkts []*Packet) []Result {
	frames := make([]Frame, len(pkts))
	for i, pkt := range pkts {
		pkt.Frame(&frames[i])
	}
	results := make([]Result, len(pkts))
	sw.ProcessFramesInto(now, frames, results)
	return results
}

// clientFrames returns the synthetic frames of clientPkt(base+j, flags) for
// j in [0, n).
func clientFrames(base, n int, flags uint8) []Frame {
	frames := make([]Frame, n)
	for j := range frames {
		clientPkt(base+j, flags).Frame(&frames[j])
	}
	return frames
}

func TestProcessBasic(t *testing.T) {
	sw := newSwitch(t)
	res := process(sw, 0, clientPkt(1, netproto.FlagSYN))
	if !res.DIP.IsValid() {
		t.Fatal("no DIP chosen")
	}
	res2 := process(sw, Time(Millisecond)*3, clientPkt(1, netproto.FlagACK))
	if res2.DIP != res.DIP {
		t.Fatal("connection remapped")
	}
	if !res2.ConnHit {
		t.Fatal("entry not installed after 3ms")
	}
	st := sw.Stats()
	if st.Connections != 1 || st.Dataplane.Packets != 2 || st.Controlplane.Inserted != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MemoryBytes == 0 {
		t.Fatal("memory not reported")
	}
}

func TestForwardRawPacket(t *testing.T) {
	sw := newSwitch(t)
	p := clientPkt(2, netproto.FlagSYN)
	p.Payload = []byte("GET /")
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	dip, err := sw.Forward(0, raw)
	if err != nil {
		t.Fatal(err)
	}
	var out Frame
	if err := ParseFrame(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Tuple.Dst != dip.Addr() || out.Tuple.DstPort != dip.Port() {
		t.Fatalf("raw packet not rewritten to %v: %v", dip, out.Tuple)
	}
	if string(out.Payload()) != "GET /" {
		t.Fatal("payload corrupted")
	}
}

func TestForwardErrors(t *testing.T) {
	sw := newSwitch(t)
	if _, err := sw.Forward(0, []byte{0x45}); err == nil {
		t.Fatal("truncated packet accepted")
	}
	stranger := clientPkt(1, netproto.FlagSYN)
	stranger.Tuple.Dst = netip.MustParseAddr("8.8.8.8")
	raw, _ := stranger.Marshal(nil)
	if _, err := sw.Forward(0, raw); err == nil {
		t.Fatal("non-VIP packet accepted")
	}
}

func TestPCCDuringRollingUpgrade(t *testing.T) {
	sw := newSwitch(t)
	vip := testVIP()
	// Establish connections.
	first := map[int]DIP{}
	for i := 0; i < 60; i++ {
		first[i] = process(sw, Time(i)*1000, clientPkt(i, netproto.FlagSYN)).DIP
	}
	// Rolling upgrade: remove and re-add each DIP while traffic continues.
	now := Time(Millisecond)
	for _, d := range Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20") {
		if err := sw.RemoveDIP(now, vip, d); err != nil {
			t.Fatal(err)
		}
		now = now.Add(5 * Millisecond)
		for i := 0; i < 60; i++ {
			res := process(sw, now, clientPkt(i, netproto.FlagACK))
			if res.Verdict.String() == "forward" && res.DIP != first[i] {
				t.Fatalf("conn %d remapped during upgrade of %v", i, d)
			}
		}
		if err := sw.AddDIP(now, vip, d); err != nil {
			t.Fatal(err)
		}
		now = now.Add(5 * Millisecond)
	}
	sw.AdvanceTo(now.Add(50 * Millisecond))
	pool, err := sw.CurrentPool(vip)
	if err != nil || len(pool) != 3 {
		t.Fatalf("pool after upgrade: %v, %v", pool, err)
	}
}

func TestEndConnectionFreesState(t *testing.T) {
	sw := newSwitch(t)
	pkt := clientPkt(5, netproto.FlagSYN)
	process(sw, 0, pkt)
	sw.AdvanceTo(Time(3 * Millisecond))
	if sw.Stats().Connections != 1 {
		t.Fatal("conn not tracked")
	}
	sw.EndConnection(Time(4*Millisecond), pkt.Tuple)
	if sw.Stats().Connections != 0 {
		t.Fatal("conn not freed")
	}
}

func TestMeteredVIP(t *testing.T) {
	sw, _ := NewSwitch(Defaults(1000))
	vip := NewVIP("20.0.0.9", 80, TCP)
	if err := sw.AddVIP(0, vip, Pool("10.0.0.1:20"), WithMeter(1000)); err != nil {
		t.Fatal(err)
	}
	pkt := clientPkt(1, 0)
	pkt.Tuple.Dst = netip.MustParseAddr("20.0.0.9")
	pkt.Payload = make([]byte, 900)
	drops := 0
	for i := 0; i < 50; i++ {
		raw, _ := pkt.Marshal(nil)
		if _, err := sw.Forward(0, raw); err != nil {
			drops++
		}
	}
	if drops < 40 {
		t.Fatalf("meter dropped %d of 50 burst packets", drops)
	}
}

func TestNextEventTime(t *testing.T) {
	sw := newSwitch(t)
	if _, ok := sw.NextEventTime(); ok {
		t.Fatal("idle switch has events")
	}
	process(sw, 0, clientPkt(1, netproto.FlagSYN))
	if at, ok := sw.NextEventTime(); !ok || at != Time(Millisecond) {
		t.Fatalf("NextEventTime = %v,%v", at, ok)
	}
}

func TestHelpers(t *testing.T) {
	v := NewVIP("1.2.3.4", 99, UDP)
	if v.Port != 99 || v.Proto != UDP {
		t.Fatal("NewVIP fields")
	}
	p := Pool("10.0.0.1:1", "10.0.0.2:2")
	if len(p) != 2 || p[1].Port() != 2 {
		t.Fatal("Pool parsing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad literal did not panic")
		}
	}()
	AddrPort("nonsense")
}

func TestForwardIPIP(t *testing.T) {
	sw := newSwitch(t)
	p := clientPkt(3, netproto.FlagSYN)
	p.Payload = []byte("dsr")
	raw, _ := p.Marshal(nil)
	self := netip.MustParseAddr("192.0.2.1")
	enc, dip, err := sw.ForwardIPIP(0, raw, self)
	if err != nil {
		t.Fatal(err)
	}
	inner, outerSrc, outerDst, err := netproto.DecapIPIP(enc)
	if err != nil {
		t.Fatal(err)
	}
	if outerSrc != self || outerDst != dip.Addr() {
		t.Fatalf("outer %v->%v, want %v->%v", outerSrc, outerDst, self, dip.Addr())
	}
	var q Frame
	if err := ParseFrame(inner, &q); err != nil {
		t.Fatal(err)
	}
	// DSR: the inner packet still carries the VIP destination.
	if q.Tuple.Dst != testVIP().Addr {
		t.Fatalf("inner dst = %v, want VIP", q.Tuple.Dst)
	}
	if _, _, err := sw.ForwardIPIP(0, []byte{1}, self); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRemoveVIP(t *testing.T) {
	sw := newSwitch(t)
	if err := sw.RemoveVIP(0, testVIP()); err != nil {
		t.Fatal(err)
	}
	res := process(sw, 0, clientPkt(1, netproto.FlagSYN))
	if res.Verdict.String() != "no-vip" {
		t.Fatalf("verdict = %v after RemoveVIP", res.Verdict)
	}
}

// TestRemoveVIPLeavesNoUpdateInFlight: withdrawing a VIP with updates queued
// behind a recording one leaves no pipe with an update in flight, so a drain
// waiting on PendingWork ends — on one pipe and on two.
func TestRemoveVIPLeavesNoUpdateInFlight(t *testing.T) {
	for _, pipes := range []int{1, 2} {
		sw := newMultiSwitch(t, pipes)
		for i := 0; i < 8; i++ { // pending on every pipe: each holds its first update recording
			process(sw, 0, clientPkt(i, netproto.FlagSYN))
		}
		for n := 3; n >= 1; n-- {
			if err := sw.UpdatePool(1000, testVIP(), Pool("10.0.9.1:20", "10.0.9.2:20", "10.0.9.3:20")[:n]); err != nil {
				t.Fatal(err)
			}
		}
		if sw.PendingWork() == 0 {
			t.Fatalf("%d pipes: nothing in flight before RemoveVIP", pipes)
		}
		if err := sw.RemoveVIP(2000, testVIP()); err != nil {
			t.Fatal(err)
		}
		sw.AdvanceTo(Time(500 * Millisecond))
		if n := sw.PendingWork(); n != 0 {
			t.Fatalf("%d pipes: PendingWork = %d after RemoveVIP and a 500 ms drain", pipes, n)
		}
		for i := 0; i < pipes; i++ {
			if n := sw.Engine().Controlplane(i).ActiveUpdates(); n != 0 {
				t.Fatalf("%d pipes: pipe %d has %d updates in flight", pipes, i, n)
			}
		}
	}
}

func TestUpdatePoolWholesale(t *testing.T) {
	sw := newSwitch(t)
	if err := sw.UpdatePool(0, testVIP(), Pool("10.0.9.1:20", "10.0.9.2:20")); err != nil {
		t.Fatal(err)
	}
	sw.AdvanceTo(Time(10 * Millisecond))
	pool, _ := sw.CurrentPool(testVIP())
	if len(pool) != 2 || pool[0].Addr() != netip.MustParseAddr("10.0.9.1") {
		t.Fatalf("pool = %v", pool)
	}
}
