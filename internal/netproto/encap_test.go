package netproto

import (
	"net/netip"
	"testing"
)

func TestEncapDecapRoundTrip(t *testing.T) {
	inner, err := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN, Payload: []byte("hi")}).Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	lb := netip.MustParseAddr("192.0.2.1")
	dip := netip.MustParseAddr("10.0.0.2")
	enc, err := EncapIPIP(nil, lb, dip, inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(inner)+20 {
		t.Fatalf("encap length = %d", len(enc))
	}
	// The outer header must checksum-verify.
	if cs := checksum(enc[:20], 0); cs != 0 {
		t.Fatalf("outer checksum = %#x", cs)
	}
	got, src, dst, err := DecapIPIP(enc)
	if err != nil {
		t.Fatal(err)
	}
	if src != lb || dst != dip {
		t.Fatalf("outer addrs = %v -> %v", src, dst)
	}
	if string(got) != string(inner) {
		t.Fatal("inner packet corrupted")
	}
	// The inner packet still decodes with the original VIP destination
	// (direct server return's requirement).
	var p Packet
	if err := Decode(got, &p); err != nil {
		t.Fatal(err)
	}
	if p.Tuple != tcpTuple4() {
		t.Fatalf("inner tuple = %v", p.Tuple)
	}
}

func TestEncapErrors(t *testing.T) {
	v4 := netip.MustParseAddr("1.1.1.1")
	if _, err := EncapIPIP(nil, v4, v4, []byte{1, 2}); err == nil {
		t.Fatal("short inner accepted")
	}
	inner, _ := (&Packet{Tuple: tcpTuple6(), TCPFlags: FlagSYN}).Marshal(nil)
	if _, err := EncapIPIP(nil, v4, v4, inner); err == nil {
		t.Fatal("IPv6 inner accepted")
	}
	inner4, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN}).Marshal(nil)
	if _, err := EncapIPIP(nil, netip.MustParseAddr("::1"), v4, inner4); err == nil {
		t.Fatal("IPv6 outer accepted")
	}
	if _, err := EncapIPIP(nil, v4, v4, make([]byte, 70000)); err == nil {
		t.Fatal("oversized inner accepted")
	}
}

func TestDecapErrors(t *testing.T) {
	if _, _, _, err := DecapIPIP(nil); err != ErrNotIPIP {
		t.Fatalf("nil: %v", err)
	}
	// Plain TCP packet: right version, wrong protocol.
	raw, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN}).Marshal(nil)
	if _, _, _, err := DecapIPIP(raw); err != ErrNotIPIP {
		t.Fatalf("tcp: %v", err)
	}
	// Truncated encap.
	inner, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN}).Marshal(nil)
	enc, _ := EncapIPIP(nil, netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("2.2.2.2"), inner)
	if _, _, _, err := DecapIPIP(enc[:25]); err != ErrTruncated {
		t.Fatalf("truncated: %v", err)
	}
	// An outer total length shorter than the two headers (0 here, as a
	// fuzzer found) once sliced past the end of the packet and panicked.
	for _, total := range []int{0, 19, 39} {
		short := append([]byte(nil), enc...)
		short[2], short[3] = byte(total>>8), byte(total)
		if _, _, _, err := DecapIPIP(short); err != ErrTruncated {
			t.Fatalf("outer total length %d: %v", total, err)
		}
	}
}

func BenchmarkEncapIPIP(b *testing.B) {
	inner, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagACK, Payload: make([]byte, 64)}).Marshal(nil)
	lb := netip.MustParseAddr("192.0.2.1")
	dip := netip.MustParseAddr("10.0.0.2")
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = EncapIPIP(buf[:0], lb, dip, inner)
	}
}
