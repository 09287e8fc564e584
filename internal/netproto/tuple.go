// Package netproto implements the packet substrate: 5-tuples, IPv4/IPv6 and
// TCP/UDP header encoding/decoding, and a lightweight packet representation
// that the SilkRoad pipeline processes.
//
// The design follows the layering style of gopacket (each protocol is its
// own decode/serialize unit, with an allocation-free fast path for the known
// ether/IP/L4 stack), restricted to exactly the layers an L4 load balancer
// touches.
package netproto

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"strings"

	"repro/internal/hashing"
)

// Proto is an IP protocol number.
type Proto uint8

// The protocols an L4 load balancer distinguishes.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// FiveTuple identifies a transport connection. It is comparable and usable
// as a map key; control-plane shadow tables key on it directly.
type FiveTuple struct {
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// String renders the tuple as "src:port->dst:port/proto".
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s->%s/%s",
		netip.AddrPortFrom(t.Src, t.SrcPort),
		netip.AddrPortFrom(t.Dst, t.DstPort), t.Proto)
}

// IsValid reports whether both addresses are set and of the same family.
func (t FiveTuple) IsValid() bool {
	return t.Src.IsValid() && t.Dst.IsValid() && t.Src.Is4() == t.Dst.Is4()
}

// ParseFiveTuple parses the String rendering, "src:port->dst:port/proto"
// (e.g. "192.168.0.1:1234->10.0.0.1:80/tcp"). An optional "proto:" prefix
// is also accepted ("tcp:src:port->dst:port"), matching the inspect CLI's
// input form. Protocols: tcp, udp.
func ParseFiveTuple(s string) (FiveTuple, error) {
	var t FiveTuple
	// Protocol, either prefixed or suffixed.
	switch {
	case strings.HasPrefix(s, "tcp:"):
		t.Proto, s = ProtoTCP, s[len("tcp:"):]
	case strings.HasPrefix(s, "udp:"):
		t.Proto, s = ProtoUDP, s[len("udp:"):]
	case strings.HasSuffix(s, "/tcp"):
		t.Proto, s = ProtoTCP, s[:len(s)-len("/tcp")]
	case strings.HasSuffix(s, "/udp"):
		t.Proto, s = ProtoUDP, s[:len(s)-len("/udp")]
	default:
		return FiveTuple{}, fmt.Errorf("netproto: five-tuple %q: missing protocol (tcp:... or .../tcp)", s)
	}
	src, dst, ok := strings.Cut(s, "->")
	if !ok {
		return FiveTuple{}, fmt.Errorf("netproto: five-tuple %q: want src:port->dst:port", s)
	}
	sap, err := netip.ParseAddrPort(src)
	if err != nil {
		return FiveTuple{}, fmt.Errorf("netproto: five-tuple source %q: %w", src, err)
	}
	dap, err := netip.ParseAddrPort(dst)
	if err != nil {
		return FiveTuple{}, fmt.Errorf("netproto: five-tuple destination %q: %w", dst, err)
	}
	t.Src, t.SrcPort = sap.Addr(), sap.Port()
	t.Dst, t.DstPort = dap.Addr(), dap.Port()
	if !t.IsValid() {
		return FiveTuple{}, fmt.Errorf("netproto: five-tuple %q: mixed or invalid address families", s)
	}
	return t, nil
}

// KeyBytes serializes the tuple into buf as the canonical ConnTable match
// key (the "37 bytes for IPv6 / 13 bytes for IPv4" layout the paper sizes
// SRAM by) and returns the filled prefix. buf must have capacity >= 37.
//
// Layout: src addr | dst addr | src port | dst port | proto, with 4-byte
// addresses for IPv4 tuples and 16-byte addresses for IPv6.
func (t FiveTuple) KeyBytes(buf []byte) []byte {
	buf = buf[:0]
	if t.Src.Is4() {
		a := t.Src.As4()
		b := t.Dst.As4()
		buf = append(buf, a[:]...)
		buf = append(buf, b[:]...)
	} else {
		a := t.Src.As16()
		b := t.Dst.As16()
		buf = append(buf, a[:]...)
		buf = append(buf, b[:]...)
	}
	buf = append(buf,
		byte(t.SrcPort>>8), byte(t.SrcPort),
		byte(t.DstPort>>8), byte(t.DstPort),
		byte(t.Proto))
	return buf
}

// Lanes writes the tuple's KeyBytes serialization into buf as the 64-bit
// lanes hashing.Hash64 reads from it and returns the filled prefix: the
// whole little-endian words of the addresses, then the ports and protocol
// as the 5-byte tail lane (hashing.TailLane) — 2 lanes for IPv4, 5 for
// IPv6. The family is chosen by Src.Is4(), as KeyBytes chooses it. Hashing
// the lanes (hashing.HashLanes) gives Hash64 over KeyBytes bit for bit,
// with no serialization buffer.
func (t *FiveTuple) Lanes(buf *[5]uint64) []uint64 {
	ports := uint64(bits.ReverseBytes16(t.SrcPort)) | uint64(bits.ReverseBytes16(t.DstPort))<<16
	tail := hashing.TailLane(ports|uint64(t.Proto)<<32, 5)
	if t.Src.Is4() {
		a, b := t.Src.As4(), t.Dst.As4()
		buf[0] = uint64(binary.LittleEndian.Uint32(a[:])) | uint64(binary.LittleEndian.Uint32(b[:]))<<32
		buf[1] = tail
		return buf[:2]
	}
	a, b := t.Src.As16(), t.Dst.As16()
	buf[0] = binary.LittleEndian.Uint64(a[:8])
	buf[1] = binary.LittleEndian.Uint64(a[8:])
	buf[2] = binary.LittleEndian.Uint64(b[:8])
	buf[3] = binary.LittleEndian.Uint64(b[8:])
	buf[4] = tail
	return buf[:5]
}

// TupleHash is hashing.Hash64(seed, t.KeyBytes(buf)) computed from the
// tuple's lanes: the one connection hash every tuple-keyed table uses.
func TupleHash(seed uint64, t *FiveTuple) uint64 {
	var buf [5]uint64
	return hashing.HashLanes(seed, t.Lanes(&buf))
}

// LaneHash hashes the tuple by packing it into 64-bit lanes and mixing
// them with fixed-width rounds. It picks a connection's pipe on a
// multi-pipe chip (pipes.Engine.PipeOf) and nothing else. Src and dst do
// not commute, so the two directions of a flow hash apart, as with
// KeyBytes. LaneHash values are unrelated to TupleHash's.
func LaneHash(seed uint64, t *FiveTuple) uint64 {
	aux := uint64(t.SrcPort)<<24 | uint64(t.DstPort)<<8 | uint64(t.Proto)
	if t.Src.Is4() {
		a, b := t.Src.As4(), t.Dst.As4()
		lo := uint64(binary.BigEndian.Uint32(a[:]))<<32 | uint64(binary.BigEndian.Uint32(b[:]))
		return hashing.HashUint64(hashing.HashUint64(seed, lo), aux)
	}
	a, b := t.Src.As16(), t.Dst.As16()
	h := hashing.HashUint64(seed, binary.BigEndian.Uint64(a[:8]))
	h = hashing.HashUint64(h, binary.BigEndian.Uint64(a[8:]))
	h = hashing.HashUint64(h, binary.BigEndian.Uint64(b[:8]))
	h = hashing.HashUint64(h, binary.BigEndian.Uint64(b[8:]))
	return hashing.HashUint64(h, aux)
}

// VIPKey returns the (destination IP, destination port, proto) triple that
// VIPTable matches on, encoded into buf.
func (t FiveTuple) VIPKey(buf []byte) []byte {
	buf = buf[:0]
	if t.Dst.Is4() {
		b := t.Dst.As4()
		buf = append(buf, b[:]...)
	} else {
		b := t.Dst.As16()
		buf = append(buf, b[:]...)
	}
	return append(buf, byte(t.DstPort>>8), byte(t.DstPort), byte(t.Proto))
}
