package netproto

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func tcpTuple4() FiveTuple {
	return FiveTuple{
		Src:     netip.MustParseAddr("1.2.3.4"),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: 1234,
		DstPort: 80,
		Proto:   ProtoTCP,
	}
}

func tcpTuple6() FiveTuple {
	return FiveTuple{
		Src:     netip.MustParseAddr("2001:db8::1"),
		Dst:     netip.MustParseAddr("2001:db8::feed"),
		SrcPort: 40000,
		DstPort: 443,
		Proto:   ProtoTCP,
	}
}

func TestTupleString(t *testing.T) {
	got := tcpTuple4().String()
	want := "1.2.3.4:1234->20.0.0.1:80/tcp"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestTupleValidity(t *testing.T) {
	if !tcpTuple4().IsValid() || !tcpTuple6().IsValid() {
		t.Fatal("valid tuples reported invalid")
	}
	mixed := tcpTuple4()
	mixed.Dst = netip.MustParseAddr("::1")
	if mixed.IsValid() {
		t.Fatal("mixed-family tuple reported valid")
	}
	if (FiveTuple{}).IsValid() {
		t.Fatal("zero tuple reported valid")
	}
}

func TestKeyBytesSizes(t *testing.T) {
	var buf [37]byte
	k4 := tcpTuple4().KeyBytes(buf[:])
	if len(k4) != 13 {
		t.Fatalf("IPv4 key size = %d, want 13 (paper §4.2)", len(k4))
	}
	k6 := tcpTuple6().KeyBytes(buf[:])
	if len(k6) != 37 {
		t.Fatalf("IPv6 key size = %d, want 37 (paper §4.2)", len(k6))
	}
}

func TestKeyBytesDistinct(t *testing.T) {
	var b1, b2 [37]byte
	a := tcpTuple4()
	b := a
	b.SrcPort++
	k1 := string(a.KeyBytes(b1[:]))
	k2 := string(b.KeyBytes(b2[:]))
	if k1 == k2 {
		t.Fatal("distinct tuples produced identical keys")
	}
}

func TestVIPKey(t *testing.T) {
	var buf [19]byte
	k := string(tcpTuple4().VIPKey(buf[:]))
	if len(k) != 7 {
		t.Fatalf("IPv4 VIP key len = %d, want 7", len(k))
	}
	k6 := tcpTuple6().VIPKey(buf[:])
	if len(k6) != 19 {
		t.Fatalf("IPv6 VIP key len = %d, want 19", len(k6))
	}
	// VIP key must ignore the source: two clients of one VIP share it.
	other := tcpTuple4()
	other.Src = netip.MustParseAddr("9.9.9.9")
	other.SrcPort = 999
	var buf2 [19]byte
	if string(other.VIPKey(buf2[:])) != k {
		t.Fatal("VIP key depends on source fields")
	}
}

func TestMarshalDecodeRoundTripTCP4(t *testing.T) {
	p := Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN, Seq: 1000, Payload: []byte("hello")}
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := Decode(raw, &q); err != nil {
		t.Fatal(err)
	}
	if q.Tuple != p.Tuple {
		t.Fatalf("tuple round trip: got %v, want %v", q.Tuple, p.Tuple)
	}
	if q.TCPFlags != p.TCPFlags || q.Seq != p.Seq {
		t.Fatalf("flags/seq mismatch: %+v", q)
	}
	if string(q.Payload) != "hello" {
		t.Fatalf("payload = %q", q.Payload)
	}
	if !q.IsSYN() {
		t.Fatal("SYN flag lost")
	}
}

func TestMarshalDecodeRoundTripTCP6(t *testing.T) {
	p := Packet{Tuple: tcpTuple6(), TCPFlags: FlagACK, Payload: []byte("v6 data")}
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := Decode(raw, &q); err != nil {
		t.Fatal(err)
	}
	if q.Tuple != p.Tuple || string(q.Payload) != "v6 data" {
		t.Fatalf("v6 round trip mismatch: %+v", q)
	}
	if q.IsSYN() {
		t.Fatal("SYN+ACK misread as bare SYN")
	}
}

func TestMarshalDecodeRoundTripUDP(t *testing.T) {
	tup := tcpTuple4()
	tup.Proto = ProtoUDP
	p := Packet{Tuple: tup, Payload: []byte("dgram")}
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := Decode(raw, &q); err != nil {
		t.Fatal(err)
	}
	if q.Tuple != tup || string(q.Payload) != "dgram" {
		t.Fatalf("udp round trip mismatch: %+v", q)
	}
}

func TestIPv4HeaderChecksumValid(t *testing.T) {
	p := Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN}
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Verifying: checksum over the header including the stored checksum
	// must be zero (i.e. ^checksum(hdr) == 0xffff... use checksum == 0).
	if cs := checksum(raw[:20], 0); cs != 0 {
		t.Fatalf("IPv4 header checksum verify = %#x, want 0", cs)
	}
}

func TestL4ChecksumValid(t *testing.T) {
	for _, tup := range []FiveTuple{tcpTuple4(), tcpTuple6()} {
		p := Packet{Tuple: tup, TCPFlags: FlagACK, Payload: []byte("odd")}
		raw, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		l4 := 20
		if !tup.Src.Is4() {
			l4 = 40
		}
		sum := pseudoHeaderSum(tup, len(raw)-l4)
		if cs := checksum(raw[l4:], sum); cs != 0 {
			t.Fatalf("%v: L4 checksum verify = %#x, want 0", tup, cs)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	var p Packet
	if err := Decode(nil, &p); err != ErrTruncated {
		t.Fatalf("nil: %v", err)
	}
	if err := Decode([]byte{0x45, 0}, &p); err != ErrTruncated {
		t.Fatalf("short v4: %v", err)
	}
	if err := Decode([]byte{0x00}, &p); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
	// ICMP (proto 1) inside a valid IPv4 header.
	raw, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN}).Marshal(nil)
	raw[9] = 1
	if err := Decode(raw, &p); err != ErrBadProtocol {
		t.Fatalf("icmp: %v", err)
	}
}

func TestMarshalInvalidTuple(t *testing.T) {
	p := Packet{}
	if _, err := p.Marshal(nil); err == nil {
		t.Fatal("Marshal of zero tuple should fail")
	}
}

// rewriteRaw parses pkt and rewrites its destination to dip in place.
func rewriteRaw(pkt []byte, dip netip.AddrPort) error {
	var f Frame
	if err := ParseFrame(pkt, &f); err != nil {
		return err
	}
	return f.RewriteDst(dip)
}

func TestRewriteDstIPv4(t *testing.T) {
	p := Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN, Payload: []byte("x")}
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	dip := netip.MustParseAddrPort("10.0.0.2:20")
	if err := rewriteRaw(raw, dip); err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := Decode(raw, &q); err != nil {
		t.Fatal(err)
	}
	if q.Tuple.Dst != dip.Addr() || q.Tuple.DstPort != dip.Port() {
		t.Fatalf("rewrite: got %v", q.Tuple)
	}
	// Checksums must still verify after the rewrite.
	if cs := checksum(raw[:20], 0); cs != 0 {
		t.Fatalf("IPv4 checksum broken after rewrite: %#x", cs)
	}
	sum := pseudoHeaderSum(q.Tuple, len(raw)-20)
	if cs := checksum(raw[20:], sum); cs != 0 {
		t.Fatalf("TCP checksum broken after rewrite: %#x", cs)
	}
}

func TestRewriteDstIPv6(t *testing.T) {
	p := Packet{Tuple: tcpTuple6(), TCPFlags: FlagACK}
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	dip := netip.MustParseAddrPort("[2001:db8::d1]:8080")
	if err := rewriteRaw(raw, dip); err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := Decode(raw, &q); err != nil {
		t.Fatal(err)
	}
	if q.Tuple.Dst != dip.Addr() || q.Tuple.DstPort != dip.Port() {
		t.Fatalf("rewrite: got %v", q.Tuple)
	}
}

func TestRewriteDstFamilyMismatch(t *testing.T) {
	raw, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN}).Marshal(nil)
	if err := rewriteRaw(raw, netip.MustParseAddrPort("[::1]:1")); err == nil {
		t.Fatal("family mismatch not rejected")
	}
}

// Property: Marshal→Decode is the identity on the tuple for random valid
// IPv4 TCP tuples.
func TestRoundTripProperty(t *testing.T) {
	f := func(s1, s2, s3, s4, d1, d2, d3, d4 byte, sp, dp uint16, seq uint32, payload []byte) bool {
		tup := FiveTuple{
			Src:     netip.AddrFrom4([4]byte{s1, s2, s3, s4}),
			Dst:     netip.AddrFrom4([4]byte{d1, d2, d3, d4}),
			SrcPort: sp, DstPort: dp, Proto: ProtoTCP,
		}
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		p := Packet{Tuple: tup, TCPFlags: FlagACK, Seq: seq, Payload: payload}
		raw, err := p.Marshal(nil)
		if err != nil {
			return false
		}
		var q Packet
		if err := Decode(raw, &q); err != nil {
			return false
		}
		return q.Tuple == tup && q.Seq == seq && string(q.Payload) == string(payload)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Fatal("proto names wrong")
	}
	if Proto(99).String() != "proto(99)" {
		t.Fatalf("unknown proto name: %s", Proto(99))
	}
}

func BenchmarkMarshalTCP4(b *testing.B) {
	p := Packet{Tuple: tcpTuple4(), TCPFlags: FlagACK, Payload: make([]byte, 32)}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = p.Marshal(buf)
	}
}

func BenchmarkDecodeTCP4(b *testing.B) {
	raw, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagACK, Payload: make([]byte, 32)}).Marshal(nil)
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Decode(raw, &p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseFiveTuple(t *testing.T) {
	want := FiveTuple{
		Src:     netip.MustParseAddr("192.168.0.1"),
		Dst:     netip.MustParseAddr("10.0.0.1"),
		SrcPort: 1234, DstPort: 80, Proto: ProtoTCP,
	}
	for _, in := range []string{
		"192.168.0.1:1234->10.0.0.1:80/tcp",
		"tcp:192.168.0.1:1234->10.0.0.1:80",
		want.String(),
	} {
		got, err := ParseFiveTuple(in)
		if err != nil {
			t.Fatalf("ParseFiveTuple(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseFiveTuple(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{
		"",
		"192.168.0.1:1234->10.0.0.1:80", // no protocol
		"udp:192.168.0.1:1234",          // no arrow
		"tcp:192.168.0.1->10.0.0.1:80",  // missing port
		"tcp:192.168.0.1:1->::1:80",     // mixed families
		"tcp:[::1]:1234->10.0.0.1:80",   // mixed families
	} {
		if _, err := ParseFiveTuple(in); err == nil {
			t.Fatalf("ParseFiveTuple(%q): want error, got nil", in)
		}
	}
}
