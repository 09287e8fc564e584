package dataplane

import (
	"net/netip"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/netproto"
)

func TestVerdictStrings(t *testing.T) {
	want := map[Verdict]string{
		VerdictForward:            "forward",
		VerdictNoVIP:              "no-vip",
		VerdictMeterDrop:          "meter-drop",
		VerdictRedirectSYNConn:    "redirect-syn-conntable",
		VerdictRedirectSYNTransit: "redirect-syn-transittable",
		Verdict(99):               "verdict(99)",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := newTestSwitch(t)
	if s.Config().DigestBits != 16 {
		t.Fatal("Config accessor")
	}
	if s.Chip() == nil || s.ConnTable() == nil || s.LearnFilter() == nil {
		t.Fatal("nil component accessors")
	}
	vips := s.VIPs()
	if len(vips) != 1 || vips[0] != testVIP() {
		t.Fatalf("VIPs = %v", vips)
	}
}

func TestSetCurrentVersion(t *testing.T) {
	s := newTestSwitch(t)
	vip := testVIP()
	s.WritePool(vip, 3, testPool(2))
	if err := s.SetCurrentVersion(vip, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.CurrentVersion(vip); v != 3 {
		t.Fatalf("version = %d", v)
	}
	if err := s.SetCurrentVersion(vip, 42); err != ErrUnknownVersion {
		t.Fatalf("unknown version: %v", err)
	}
	other := VIP{Addr: netip.MustParseAddr("8.8.8.8"), Port: 1, Proto: netproto.ProtoTCP}
	if err := s.SetCurrentVersion(other, 0); err != ErrUnknownVIP {
		t.Fatalf("unknown vip: %v", err)
	}
	if err := s.SetRecording(other, true); err != ErrUnknownVIP {
		t.Fatalf("SetRecording unknown vip: %v", err)
	}
	if err := s.EndTransition(other); err != ErrUnknownVIP {
		t.Fatalf("EndTransition unknown vip: %v", err)
	}
	if s.InUpdate(other) {
		t.Fatal("unknown vip in update")
	}
}

func TestSelectDIPEmptyPool(t *testing.T) {
	s := newTestSwitch(t)
	vip := testVIP()
	s.WritePool(vip, 5, nil)
	d, err := s.SelectDIP(vip, 5, clientTuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.IsValid() {
		t.Fatal("empty pool produced a DIP")
	}
}

func TestResolveSYNCollisionBadHandle(t *testing.T) {
	s := newTestSwitch(t)
	res := Result{ConnHandle: cuckoo.Handle{Stage: 99}}
	if _, err := s.ResolveSYNCollision(clientTuple(1), res); err == nil {
		t.Fatal("bad handle accepted")
	}
}

func TestProcessUDPConnection(t *testing.T) {
	// UDP flows have no SYN; they learn on first packet and pin like TCP.
	s, _ := New(DefaultConfig(1000))
	vip := VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 53, Proto: netproto.ProtoUDP}
	s.InstallVIP(vip, 0, testPool(4), 0)
	tup := clientTuple(1)
	tup.DstPort = 53
	tup.Proto = netproto.ProtoUDP
	res := processPacket(s, 0, &netproto.Packet{Tuple: tup})
	if res.Verdict != VerdictForward || !res.Learned {
		t.Fatalf("udp first packet: %+v", res)
	}
	if err := s.InsertConn(tup, 0); err != nil {
		t.Fatal(err)
	}
	res2 := processPacket(s, 100, &netproto.Packet{Tuple: tup})
	if !res2.ConnHit || res2.DIP != res.DIP {
		t.Fatal("udp conn not pinned")
	}
}
