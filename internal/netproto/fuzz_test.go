package netproto

import (
	"net/netip"
	"testing"
)

// decodeSeeds is FuzzDecode's corpus: valid v4/v6 TCP/UDP packets plus
// truncations. FuzzParseFrame runs it too, under its round-trip property.
func decodeSeeds() [][]byte {
	p4, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN, Payload: []byte("seed")}).Marshal(nil)
	p6, _ := (&Packet{Tuple: tcpTuple6(), TCPFlags: FlagACK}).Marshal(nil)
	udp := tcpTuple4()
	udp.Proto = ProtoUDP
	pu, _ := (&Packet{Tuple: udp, Payload: []byte("u")}).Marshal(nil)
	return [][]byte{p4, p6, pu, p4[:10], {}, {0x60}}
}

// FuzzDecode hammers the reference decoder (Decode, decode_test.go): it
// must never panic, and any packet it accepts must survive a
// re-marshal/re-decode round trip of its tuple. CI fuzzes FuzzParseFrame,
// which checks the same property on the production parser; this target's
// seeds run under plain go test.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := Decode(data, &p); err != nil {
			return
		}
		if !p.Tuple.IsValid() {
			// Decoders may accept packets with zero addresses; that's
			// fine as long as nothing panicked.
			return
		}
		raw, err := p.Marshal(nil)
		if err != nil {
			t.Fatalf("accepted packet failed to re-marshal: %v", err)
		}
		var q Packet
		if err := Decode(raw, &q); err != nil {
			t.Fatalf("re-marshaled packet failed to decode: %v", err)
		}
		if q.Tuple != p.Tuple {
			t.Fatalf("tuple changed across round trip: %v vs %v", q.Tuple, p.Tuple)
		}
	})
}

// FuzzParseFrame locks the frame parser to the reference decoder (Decode,
// decode_test.go) under arbitrary input: it must never panic, must accept
// exactly what Decode accepts, and must extract identical fields. Accepted
// frames must keep their offsets inside Data (no out-of-range aliasing),
// and an accepted frame's valid tuple must survive Packet.Marshal and a
// second ParseFrame.
func FuzzParseFrame(f *testing.F) {
	p4, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN, Payload: []byte("seed")}).Marshal(nil)
	p6, _ := (&Packet{Tuple: tcpTuple6(), TCPFlags: FlagACK}).Marshal(nil)
	udp := tcpTuple4()
	udp.Proto = ProtoUDP
	pu, _ := (&Packet{Tuple: udp, Payload: []byte("odd")}).Marshal(nil)
	f.Add(p4)
	f.Add(p6)
	f.Add(pu)
	f.Add(p4[:17])
	f.Add([]byte{0x46}) // IPv4 with options, truncated
	f.Add([]byte{})
	for _, s := range decodeSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		var fr Frame
		perr := Decode(data, &p)
		ferr := ParseFrame(data, &fr)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("accept disagreement: Decode=%v ParseFrame=%v", perr, ferr)
		}
		if ferr != nil {
			return
		}
		if fr.Tuple != p.Tuple || fr.TCPFlags != p.TCPFlags || fr.Seq != p.Seq {
			t.Fatalf("field disagreement: frame {%v %v %v} vs packet {%v %v %v}",
				fr.Tuple, fr.TCPFlags, fr.Seq, p.Tuple, p.TCPFlags, p.Seq)
		}
		if len(fr.Data) > len(data) {
			t.Fatal("frame Data longer than input")
		}
		if fr.L4 < 0 || fr.L4 > len(fr.Data) || fr.PayloadOff < fr.L4 || fr.PayloadOff > len(fr.Data) {
			t.Fatalf("offsets out of range: L4=%d PayloadOff=%d len=%d", fr.L4, fr.PayloadOff, len(fr.Data))
		}
		if string(fr.Payload()) != string(p.Payload) {
			t.Fatalf("payload disagreement: %q vs %q", fr.Payload(), p.Payload)
		}
		if !fr.Tuple.IsValid() {
			// The parser may accept zero addresses; Marshal refuses them.
			return
		}
		back := Packet{Tuple: fr.Tuple, TCPFlags: fr.TCPFlags, Seq: fr.Seq, Payload: fr.Payload()}
		raw, err := back.Marshal(nil)
		if err != nil {
			t.Fatalf("accepted frame failed to re-marshal: %v", err)
		}
		var again Frame
		if err := ParseFrame(raw, &again); err != nil {
			t.Fatalf("re-marshaled packet failed to parse: %v", err)
		}
		if again.Tuple != fr.Tuple {
			t.Fatalf("tuple changed across round trip: %v vs %v", again.Tuple, fr.Tuple)
		}
	})
}

// FuzzFrameRewrite drives the in-place rewrite and the IP-in-IP encap round
// trip over arbitrary accepted packets (truncated headers, IPv4 options,
// odd-length payloads): no panic, the rewrite must stay inside the frame's
// bytes, rewriting back must restore the original exactly, and an encap/
// decap round trip must preserve the (rewritten) inner packet.
func FuzzFrameRewrite(f *testing.F) {
	p4, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagACK, Payload: []byte("abc")}).Marshal(nil)
	udp := tcpTuple4()
	udp.Proto = ProtoUDP
	pu, _ := (&Packet{Tuple: udp, Payload: []byte("abcde")}).Marshal(nil)
	f.Add(p4, uint32(0x0a000009), uint16(80))
	f.Add(pu, uint32(0xc0a80101), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, addr uint32, port uint16) {
		var fr Frame
		if err := ParseFrame(data, &fr); err != nil {
			return
		}
		before := fr.Tuple
		// Canonicalize first: arbitrary accepted input carries junk
		// checksums, and every rewrite recomputes them, so byte-identity
		// under a round trip only holds from a canonical starting point.
		if err := fr.RewriteDst(netip.AddrPortFrom(before.Dst, before.DstPort)); err != nil {
			t.Fatalf("identity RewriteDst failed: %v", err)
		}
		orig := append([]byte(nil), fr.Data...)
		var dipAddr netip.Addr
		if before.Dst.Is4() {
			dipAddr = netip.AddrFrom4([4]byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)})
		} else {
			var b [16]byte
			b[0], b[1], b[2], b[3] = byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr)
			b[15] = 1
			dipAddr = netip.AddrFrom16(b)
		}
		dip := netip.AddrPortFrom(dipAddr, port)
		if err := fr.RewriteDst(dip); err != nil {
			t.Fatalf("same-family RewriteDst failed: %v", err)
		}
		if fr.Tuple.Dst != dipAddr || fr.Tuple.DstPort != port {
			t.Fatalf("tuple not rewritten: %v", fr.Tuple)
		}
		// Reparsing the rewritten bytes must agree with the updated tuple.
		var back Frame
		if err := ParseFrame(fr.Data, &back); err != nil {
			t.Fatalf("rewritten frame unparseable: %v", err)
		}
		if back.Tuple != fr.Tuple {
			t.Fatalf("reparse disagreement: %v vs %v", back.Tuple, fr.Tuple)
		}
		// Encap/decap round trip preserves the inner bytes (v4 outer only).
		if enc, err := EncapIPIP(nil, netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("2.2.2.2"), fr.Data); err == nil {
			inner, _, _, derr := DecapIPIP(enc)
			if derr != nil {
				t.Fatalf("decap of fresh encap failed: %v", derr)
			}
			if string(inner) != string(fr.Data) {
				t.Fatal("inner packet corrupted across encap round trip")
			}
		}
		// Rewriting back restores the original bytes exactly.
		if err := fr.RewriteDst(netip.AddrPortFrom(before.Dst, before.DstPort)); err != nil {
			t.Fatalf("rewrite back failed: %v", err)
		}
		if string(fr.Data) != string(orig) {
			t.Fatal("rewrite round trip not byte-identical")
		}
	})
}

// FuzzDecapIPIP checks the decapsulator never panics and only accepts
// protocol-4 IPv4 packets.
func FuzzDecapIPIP(f *testing.F) {
	inner, _ := (&Packet{Tuple: tcpTuple4(), TCPFlags: FlagSYN}).Marshal(nil)
	enc, _ := EncapIPIP(nil, netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("2.2.2.2"), inner)
	f.Add(enc)
	f.Add(enc[:24])
	f.Add(inner)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, src, dst, err := DecapIPIP(data)
		if err != nil {
			return
		}
		if !src.Is4() || !dst.Is4() {
			t.Fatal("accepted decap with non-IPv4 outer addresses")
		}
		if len(got) > len(data) {
			t.Fatal("inner longer than input")
		}
	})
}
