package silkroad

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/pipes"
)

// TestPacketEntryPoints pins the packet path's exported entry points, layer
// by layer: every method named Process… or Forward… on the data plane, the
// multi-pipe engine, the control plane and the facade. Each layer takes
// frames; a caller holding a decoded Packet converts it at its own edge
// with Packet.Frame.
func TestPacketEntryPoints(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		// ProcessFrame stays as a wrapper for the benchmark's ledger.
		{reflect.TypeOf((*dataplane.Switch)(nil)), []string{"ProcessFrame", "ProcessFrameInto"}},
		// One packet entry: a single frame is a one-frame batch.
		{reflect.TypeOf((*pipes.Engine)(nil)), []string{"ProcessFramesInto"}},
		// No packet entry: the engine composes the per-packet step (poll,
		// pipeline, CPU verdict) from the two planes.
		{reflect.TypeOf((*ctrlplane.ControlPlane)(nil)), nil},
		{reflect.TypeOf((*Switch)(nil)), []string{"Forward", "ForwardIPIP", "ProcessFrame", "ProcessFramesInto"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			if name := c.typ.Method(i).Name; strings.HasPrefix(name, "Process") || strings.HasPrefix(name, "Forward") {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v: packet entry points %v, want %v", c.typ, got, c.want)
		}
	}
}

// TestForwardIPIPRejectsIPv6: IP-in-IP carries IPv4 only, so an IPv6 packet
// fails before the pipeline sees it — not metered, not learned, not pinned —
// even when its destination is a VIP.
func TestForwardIPIPRejectsIPv6(t *testing.T) {
	sw := newSwitch(t)
	vip6 := NewVIP("2001:db8::20", 80, TCP)
	if err := sw.AddVIP(0, vip6, Pool("[2001:db8::a]:20", "[2001:db8::b]:20")); err != nil {
		t.Fatal(err)
	}
	p := clientPkt(1, FlagSYN)
	p.Tuple.Src = netip.MustParseAddr("2001:db8::1")
	p.Tuple.Dst = vip6.Addr
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := sw.Stats()
	if _, _, err := sw.ForwardIPIP(0, raw, netip.MustParseAddr("192.0.2.1")); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("IPv6 SYN through ForwardIPIP: err = %v, want ErrUndecodable", err)
	}
	sw.AdvanceTo(Time(10 * Millisecond)) // past the flush and insertion a learn would have queued
	after := sw.Stats()
	if after.Dataplane.Packets != before.Dataplane.Packets ||
		after.Dataplane.LearnOffers != before.Dataplane.LearnOffers ||
		after.Connections != before.Connections {
		t.Fatalf("rejected packet reached the pipeline: packets %d -> %d, learn offers %d -> %d, connections %d -> %d",
			before.Dataplane.Packets, after.Dataplane.Packets,
			before.Dataplane.LearnOffers, after.Dataplane.LearnOffers,
			before.Connections, after.Connections)
	}
}

// FuzzForward runs arbitrary bytes through both raw-packet entry points of
// a one-pipe switch with one IPv4 VIP. Neither may panic. An error wraps
// one of the four sentinels, unless the packet passed the pipeline and
// failed in the rewrite or encapsulation after it. Forward's rewritten
// bytes parse to the returned DIP with valid checksums, and decapsulating
// ForwardIPIP's output gives back the input packet.
func FuzzForward(f *testing.F) {
	for _, flags := range []uint8{FlagSYN, FlagACK} {
		p := clientPkt(1, flags)
		p.Payload = []byte("seed")
		raw, err := p.Marshal(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	sw, err := NewSwitch(Defaults(4096))
	if err != nil {
		f.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		f.Fatal(err)
	}
	self := netip.MustParseAddr("192.0.2.1")
	now := Time(0)
	// checkErr fails t unless err is allowed for a call that moved the data
	// plane's packet counter from before.
	checkErr := func(t *testing.T, call string, err error, before uint64) {
		t.Helper()
		for _, sentinel := range []error{ErrUndecodable, ErrNotVIP, ErrMeterDrop, ErrNoBackend} {
			if errors.Is(err, sentinel) {
				return
			}
		}
		if sw.Stats().Dataplane.Packets == before {
			t.Fatalf("%s: error %v wraps no sentinel, and the pipeline never saw the packet", call, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Frame
		parsed := ParseFrame(bytes.Clone(data), &in) == nil

		now = now.Add(Microsecond)
		buf := bytes.Clone(data)
		before := sw.Stats().Dataplane.Packets
		dip, err := sw.Forward(now, buf)
		if err != nil {
			checkErr(t, "Forward", err, before)
		} else {
			var out Frame
			if err := ParseFrame(buf, &out); err != nil {
				t.Fatalf("Forward's rewritten bytes do not parse: %v", err)
			}
			if out.Tuple.Dst != dip.Addr() || out.Tuple.DstPort != dip.Port() {
				t.Fatalf("Forward returned %v, rewrote the packet to %v:%d", dip, out.Tuple.Dst, out.Tuple.DstPort)
			}
			if !checksumsValid(&out) {
				t.Fatal("Forward's rewritten bytes fail their checksums")
			}
		}

		now = now.Add(Microsecond)
		before = sw.Stats().Dataplane.Packets
		enc, dip, err := sw.ForwardIPIP(now, bytes.Clone(data), self)
		if err != nil {
			checkErr(t, "ForwardIPIP", err, before)
			return
		}
		inner, outerSrc, outerDst, err := netproto.DecapIPIP(enc)
		if err != nil {
			t.Fatalf("ForwardIPIP's output does not decapsulate: %v", err)
		}
		if outerSrc != self || outerDst != dip.Addr() {
			t.Fatalf("outer header %v -> %v, want %v -> %v", outerSrc, outerDst, self, dip.Addr())
		}
		if !parsed || !bytes.Equal(inner, in.Data) {
			t.Fatal("decapsulated packet differs from the input")
		}
	})
}

// checksumsValid reports whether an IPv4 frame's header and TCP/UDP
// checksums verify: the one's-complement sum of each covered span,
// checksum field included, is all ones.
func checksumsValid(f *Frame) bool {
	if !f.Tuple.Dst.Is4() || onesSum(f.Data[:f.L4], 0) != 0xffff {
		return false
	}
	src, dst := f.Tuple.Src.As4(), f.Tuple.Dst.As4()
	pseudo := onesSum(src[:], 0) + onesSum(dst[:], 0) + uint32(f.Tuple.Proto) + uint32(len(f.Data)-f.L4)
	return onesSum(f.Data[f.L4:], pseudo) == 0xffff
}

// onesSum folds b's big-endian 16-bit words, a trailing odd byte padded
// with zero, onto sum in one's-complement arithmetic.
func onesSum(b []byte, sum uint32) uint32 {
	for ; len(b) >= 2; b = b[2:] {
		sum += uint32(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum
}
