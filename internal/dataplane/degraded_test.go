package dataplane

import (
	"testing"

	"repro/internal/netproto"
)

// TestDegradedModeHysteresis: above the high watermark the switch serves
// new flows stateless (no learning); below the low watermark it resumes
// stateful service. Established flows keep their ConnTable pins
// throughout.
func TestDegradedModeHysteresis(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.DegradedHighWatermark = 0.5
	cfg.DegradedLowWatermark = 0.25
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallVIP(testVIP(), 0, testPool(4), 0); err != nil {
		t.Fatal(err)
	}
	// Cap occupancy at 20 entries: degraded entry at 10, exit below 5.
	s.SetConnTableLimit(20)
	for i := 0; i < 10; i++ {
		if err := s.InsertConn(clientTuple(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Degraded() {
		t.Fatal("degraded before any packet evaluated the watermark")
	}

	// A miss at the high watermark: forwarded, not learned, stateless.
	syn := &netproto.Packet{Tuple: clientTuple(100), TCPFlags: netproto.FlagSYN}
	res := processPacket(s, 1, syn)
	if res.Verdict != VerdictForward || res.Learned {
		t.Fatalf("degraded miss: verdict=%v learned=%v", res.Verdict, res.Learned)
	}
	if !s.Degraded() {
		t.Fatal("high watermark did not enter degraded mode")
	}
	st := s.Stats()
	if st.DegradedPackets != 1 || st.DegradedTransitions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Stateless service is stable: the per-version hash keeps picking the
	// same DIP for the same flow.
	res2 := processPacket(s, 2, &netproto.Packet{Tuple: clientTuple(100), TCPFlags: netproto.FlagACK})
	if res2.DIP != res.DIP {
		t.Fatalf("stateless DIP moved: %v -> %v", res.DIP, res2.DIP)
	}
	// Established flows still hit ConnTable.
	est := processPacket(s, 3, &netproto.Packet{Tuple: clientTuple(1), TCPFlags: netproto.FlagACK})
	if !est.ConnHit {
		t.Fatal("established flow lost its pin in degraded mode")
	}

	// Hysteresis: draining to the entry threshold is not enough ...
	for i := 0; i < 4; i++ {
		s.DeleteConn(clientTuple(i))
	}
	processPacket(s, 5, &netproto.Packet{Tuple: clientTuple(101), TCPFlags: netproto.FlagSYN})
	if !s.Degraded() {
		t.Fatal("left degraded mode between the watermarks")
	}
	// ... but dropping below the low watermark exits and resumes learning.
	for i := 4; i < 8; i++ {
		s.DeleteConn(clientTuple(i))
	}
	res3 := processPacket(s, 7, &netproto.Packet{Tuple: clientTuple(102), TCPFlags: netproto.FlagSYN})
	if s.Degraded() {
		t.Fatal("did not exit degraded mode below the low watermark")
	}
	if !res3.Learned {
		t.Fatal("post-recovery miss did not learn")
	}
	if got := s.Stats().DegradedTransitions; got != 2 {
		t.Fatalf("DegradedTransitions = %d, want 2", got)
	}
	entries, capacity := s.OccupancyInfo()
	if capacity != 20 || entries != s.ConnTable().Len() {
		t.Fatalf("OccupancyInfo = (%d, %d)", entries, capacity)
	}
}

func TestDegradedWatermarkValidation(t *testing.T) {
	for _, wm := range [][2]float64{{0.5, 0.6}, {1.2, 0.5}, {0.9, 0}} {
		cfg := DefaultConfig(1000)
		cfg.DegradedHighWatermark = wm[0]
		cfg.DegradedLowWatermark = wm[1]
		if _, err := New(cfg); err == nil {
			t.Fatalf("watermarks %v accepted", wm)
		}
	}
	// Zero high watermark = feature off: never degrades.
	cfg := DefaultConfig(1000)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatal("degraded with the feature disabled")
	}
}
