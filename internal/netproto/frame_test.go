package netproto

import (
	"bytes"
	"net/netip"
	"testing"
	"unsafe"
)

// framePackets returns a spread of canonically framed packets covering both
// families and both transports, with assorted payload lengths (including
// odd ones, which exercise the checksum's trailing-byte path).
func framePackets(t testing.TB) [][]byte {
	t.Helper()
	udp4 := tcpTuple4()
	udp4.Proto = ProtoUDP
	udp6 := tcpTuple6()
	udp6.Proto = ProtoUDP
	pkts := []*Packet{
		{Tuple: tcpTuple4(), TCPFlags: FlagSYN, Seq: 7},
		{Tuple: tcpTuple4(), TCPFlags: FlagACK, Seq: 8, Payload: []byte("hello")},
		{Tuple: tcpTuple6(), TCPFlags: FlagACK | FlagFIN, Payload: []byte("x")},
		{Tuple: udp4, Payload: []byte("datagram!")},
		{Tuple: udp6},
	}
	var out [][]byte
	for _, p := range pkts {
		raw, err := p.Marshal(nil)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", p.Tuple, err)
		}
		out = append(out, raw)
	}
	return out
}

// withIPv4Options inserts n 4-byte NOP option words after a 20-byte IPv4
// header, fixing IHL, total length and the header checksum. The L4 checksum
// is untouched: the pseudo-header covers only the L4 length, which does not
// change.
func withIPv4Options(t testing.TB, raw []byte, n int) []byte {
	t.Helper()
	if raw[0]>>4 != 4 || raw[0]&0x0f != 5 {
		t.Fatalf("not a plain IPv4 packet: version/ihl byte %#x", raw[0])
	}
	opts := bytes.Repeat([]byte{0x01}, 4*n) // NOP padding
	out := make([]byte, 0, len(raw)+len(opts))
	out = append(out, raw[:20]...)
	out = append(out, opts...)
	out = append(out, raw[20:]...)
	out[0] = 0x40 | byte(5+n)
	total := len(raw) + 4*n
	out[2], out[3] = byte(total>>8), byte(total)
	out[10], out[11] = 0, 0
	cs := checksum(out[:20+4*n], 0)
	out[10], out[11] = byte(cs>>8), byte(cs)
	return out
}

// TestParseFrameAgreesWithDecode locks the frame parser to the struct
// decoder: both must accept the same packets and extract identical fields.
func TestParseFrameAgreesWithDecode(t *testing.T) {
	inputs := framePackets(t)
	inputs = append(inputs, withIPv4Options(t, inputs[0], 1))
	inputs = append(inputs, withIPv4Options(t, inputs[1], 4))
	// Trailing garbage past the IP total length: both parsers must trim.
	inputs = append(inputs, append(append([]byte{}, inputs[1]...), 0xde, 0xad))
	for _, raw := range inputs {
		var p Packet
		var f Frame
		perr := Decode(raw, &p)
		ferr := ParseFrame(raw, &f)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("accept disagreement: Decode=%v ParseFrame=%v", perr, ferr)
		}
		if perr != nil {
			continue
		}
		if f.Tuple != p.Tuple || f.TCPFlags != p.TCPFlags || f.Seq != p.Seq {
			t.Fatalf("field disagreement: frame {%v %v %v} vs packet {%v %v %v}",
				f.Tuple, f.TCPFlags, f.Seq, p.Tuple, p.TCPFlags, p.Seq)
		}
		if !bytes.Equal(f.Payload(), p.Payload) {
			t.Fatalf("payload disagreement: %q vs %q", f.Payload(), p.Payload)
		}
	}
	// Rejections must agree too.
	bad := [][]byte{
		nil,
		{},
		{0x20},        // bad version
		inputs[0][:1], // truncated v4 header
		inputs[0][:19],
		inputs[0][:25], // truncated TCP header
		inputs[2][:39], // truncated v6 header
	}
	for _, raw := range bad {
		var p Packet
		var f Frame
		perr := Decode(raw, &p)
		ferr := ParseFrame(raw, &f)
		if perr == nil || ferr == nil {
			t.Fatalf("truncated input accepted: Decode=%v ParseFrame=%v (len %d)", perr, ferr, len(raw))
		}
	}
}

// TestWireLenAgreesUnderCanonicalFraming is the meter-consistency
// regression test: for canonically framed packets (Marshal output) the
// frame's actual wire length must equal the struct's reconstructed
// WireLen, so the two currencies charge meters and byte counters
// identically. Non-canonical framing (IPv4 options, trailing garbage)
// diverges by design: the frame charges what was really on the wire.
func TestWireLenAgreesUnderCanonicalFraming(t *testing.T) {
	for _, raw := range framePackets(t) {
		var p Packet
		var f Frame
		if err := Decode(raw, &p); err != nil {
			t.Fatal(err)
		}
		if err := ParseFrame(raw, &f); err != nil {
			t.Fatal(err)
		}
		if f.WireLen() != p.WireLen() {
			t.Fatalf("%v: frame WireLen %d != packet WireLen %d", p.Tuple, f.WireLen(), p.WireLen())
		}
		if f.WireLen() != len(raw) {
			t.Fatalf("%v: frame WireLen %d != raw length %d", p.Tuple, f.WireLen(), len(raw))
		}
	}
	// With 4 bytes of IPv4 options the actual wire length exceeds the
	// canonical reconstruction by exactly the options.
	raw := framePackets(t)[1]
	opt := withIPv4Options(t, raw, 1)
	var p Packet
	var f Frame
	if err := Decode(opt, &p); err != nil {
		t.Fatal(err)
	}
	if err := ParseFrame(opt, &f); err != nil {
		t.Fatal(err)
	}
	if f.WireLen() != p.WireLen()+4 {
		t.Fatalf("options packet: frame WireLen %d, packet WireLen %d", f.WireLen(), p.WireLen())
	}
}

// checkChecksums fails the test unless pkt's IPv4 header checksum (when
// IPv4) and L4 checksum are both valid for its current contents.
func checkChecksums(t *testing.T, pkt []byte) {
	t.Helper()
	var f Frame
	if err := ParseFrame(pkt, &f); err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if f.Tuple.Src.Is4() {
		if got := checksum(pkt[:f.L4], 0); got != 0 {
			t.Fatalf("IPv4 header checksum invalid: residue %#x", got)
		}
	}
	// fillL4Checksum is deterministic: recomputing on a copy must be a
	// fixed point if the stored checksum is correct.
	cp := append([]byte(nil), pkt...)
	fillL4Checksum(cp, f.Tuple, f.L4)
	if !bytes.Equal(cp, pkt) {
		t.Fatal("L4 checksum not a fixed point of recomputation")
	}
}

// TestFrameRewriteDst exercises the in-place rewrite on every packet shape:
// the tuple, raw destination bytes and both checksums must all come out
// consistent, and rewriting back must restore the original bytes exactly.
func TestFrameRewriteDst(t *testing.T) {
	dip4 := netip.MustParseAddrPort("10.9.8.7:6543")
	dip6 := netip.MustParseAddrPort("[2001:db8::9]:6543")
	inputs := framePackets(t)
	inputs = append(inputs, withIPv4Options(t, inputs[0], 2))
	for _, orig := range inputs {
		raw := append([]byte(nil), orig...)
		var f Frame
		if err := ParseFrame(raw, &f); err != nil {
			t.Fatal(err)
		}
		before := f.Tuple
		dip := dip4
		if !f.Tuple.Dst.Is4() {
			dip = dip6
		}
		if err := f.RewriteDst(dip); err != nil {
			t.Fatalf("%v: RewriteDst: %v", before, err)
		}
		if f.Tuple.Dst != dip.Addr() || f.Tuple.DstPort != dip.Port() {
			t.Fatalf("tuple not updated: %v", f.Tuple)
		}
		var p Packet
		if err := Decode(raw, &p); err != nil {
			t.Fatalf("rewritten packet undecodable: %v", err)
		}
		if p.Tuple.Dst != dip.Addr() || p.Tuple.DstPort != dip.Port() {
			t.Fatalf("bytes not rewritten: %v", p.Tuple)
		}
		if p.Tuple.Src != before.Src || p.Tuple.SrcPort != before.SrcPort {
			t.Fatalf("source corrupted: %v", p.Tuple)
		}
		checkChecksums(t, raw)
		// Round trip back to the original destination restores the exact
		// original bytes (checksums included).
		if err := f.RewriteDst(netip.AddrPortFrom(before.Dst, before.DstPort)); err != nil {
			t.Fatalf("rewrite back: %v", err)
		}
		if !bytes.Equal(raw, orig) {
			t.Fatalf("%v: rewrite round trip not byte-identical", before)
		}
	}
}

func TestFrameRewriteDstFamilyMismatch(t *testing.T) {
	raw := framePackets(t)[0]
	var f Frame
	if err := ParseFrame(raw, &f); err != nil {
		t.Fatal(err)
	}
	if err := f.RewriteDst(netip.MustParseAddrPort("[2001:db8::9]:80")); err == nil {
		t.Fatal("v6 rewrite of a v4 frame accepted")
	}
}

// TestRewriteDstZeroAlloc is the regression for the old RewriteDst, which
// re-decoded the whole packet (and allocated) on every call: the frame
// method must be allocation-free.
func TestRewriteDstZeroAlloc(t *testing.T) {
	raw := append([]byte(nil), framePackets(t)[1]...)
	var f Frame
	if err := ParseFrame(raw, &f); err != nil {
		t.Fatal(err)
	}
	a := netip.MustParseAddrPort("10.0.0.8:8080")
	b := netip.MustParseAddrPort("10.0.0.9:9090")
	if n := testing.AllocsPerRun(200, func() {
		_ = f.RewriteDst(a)
		_ = f.RewriteDst(b)
	}); n != 0 {
		t.Fatalf("Frame.RewriteDst allocates %v per run", n)
	}
}

// BenchmarkRewriteDst measures the in-place rewrite round trip (two
// rewrites per iteration, alternating destinations so the bytes really
// change each time).
func BenchmarkRewriteDst(b *testing.B) {
	raw := append([]byte(nil), framePackets(b)[1]...)
	var f Frame
	if err := ParseFrame(raw, &f); err != nil {
		b.Fatal(err)
	}
	x := netip.MustParseAddrPort("10.0.0.8:8080")
	y := netip.MustParseAddrPort("10.0.0.9:9090")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.RewriteDst(x); err != nil {
			b.Fatal(err)
		}
		if err := f.RewriteDst(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseFrame measures the single-pass parse on a reused frame.
func BenchmarkParseFrame(b *testing.B) {
	raw := framePackets(b)[1]
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ParseFrame(raw, &f); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPacketFrameAgreesWithWire locks the one Packet -> Frame conversion to
// the wire: for every family, transport and payload size the synthetic
// frame carries the same match fields and length as the frame parsed from
// the packet's own Marshal output — and no bytes.
func TestPacketFrameAgreesWithWire(t *testing.T) {
	for _, tuple := range []FiveTuple{tcpTuple4(), tcpTuple6()} {
		for _, proto := range []Proto{ProtoTCP, ProtoUDP} {
			for _, payload := range []int{0, 1, 1400} {
				p := Packet{Tuple: tuple, Payload: make([]byte, payload)}
				p.Tuple.Proto = proto
				if proto == ProtoTCP {
					p.TCPFlags, p.Seq = FlagSYN|FlagACK, 0xdeadbeef
				}
				raw, err := p.Marshal(nil)
				if err != nil {
					t.Fatalf("Marshal(%v): %v", p.Tuple, err)
				}
				var wire, synth Frame
				if err := ParseFrame(raw, &wire); err != nil {
					t.Fatalf("ParseFrame(%v): %v", p.Tuple, err)
				}
				p.Frame(&synth)
				if synth.Data != nil {
					t.Fatalf("%v/%d: synthetic frame holds %d bytes", p.Tuple, payload, len(synth.Data))
				}
				if synth.Tuple != wire.Tuple || synth.TCPFlags != wire.TCPFlags || synth.Seq != wire.Seq {
					t.Fatalf("%v/%d: synthetic {%v %#x %d} vs wire {%v %#x %d}", p.Tuple, payload,
						synth.Tuple, synth.TCPFlags, synth.Seq, wire.Tuple, wire.TCPFlags, wire.Seq)
				}
				if synth.WireLen() != wire.WireLen() || synth.WireLen() != len(raw) {
					t.Fatalf("%v/%d: WireLen synthetic %d, wire %d, marshaled %d", p.Tuple, payload,
						synth.WireLen(), wire.WireLen(), len(raw))
				}
			}
		}
	}
}

// TestFrameSize pins the Frame's size: the hot batch is a []Frame, so a
// field added to it is paid on every frame of every batch.
func TestFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != 112 {
		t.Fatalf("unsafe.Sizeof(Frame{}) = %d, want 112", got)
	}
}
