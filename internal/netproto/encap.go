package netproto

import (
	"encoding/binary"
	"errors"
	"net/netip"
)

// IP-in-IP encapsulation (RFC 2003), the forwarding mode software load
// balancers like Maglev use instead of destination rewriting: the original
// packet is carried intact to the DIP, which decapsulates and sees the
// original VIP destination (required for direct server return). SilkRoad
// on a ToR typically rewrites instead, but cmd/silkroadd exposes both.

// ProtoIPIP is the IPv4-in-IPv4 protocol number.
const ProtoIPIP Proto = 4

// ErrNotIPIP is returned by DecapIPIP for non-encapsulated input.
var ErrNotIPIP = errors.New("netproto: not an IPv4-in-IPv4 packet")

// EncapIPIP wraps an inner IPv4 packet in an outer IPv4 header addressed
// from src to dst, appending to buf. The inner packet must be IPv4.
func EncapIPIP(buf []byte, src, dst netip.Addr, inner []byte) ([]byte, error) {
	if len(inner) < 20 || inner[0]>>4 != 4 {
		return nil, errors.New("netproto: inner packet is not IPv4")
	}
	if !src.Is4() || !dst.Is4() {
		return nil, errors.New("netproto: outer addresses must be IPv4")
	}
	total := 20 + len(inner)
	if total > 0xffff {
		return nil, errors.New("netproto: encapsulated packet too large")
	}
	start := len(buf)
	buf = append(buf,
		0x45, 0, byte(total>>8), byte(total),
		0, 0, 0x40, 0,
		64, byte(ProtoIPIP), 0, 0)
	s4 := src.As4()
	d4 := dst.As4()
	buf = append(buf, s4[:]...)
	buf = append(buf, d4[:]...)
	cs := checksum(buf[start:start+20], 0)
	binary.BigEndian.PutUint16(buf[start+10:], cs)
	return append(buf, inner...), nil
}

// DecapIPIP strips the outer IPv4 header of an IP-in-IP packet and returns
// the inner packet (aliasing data) plus the outer source and destination.
func DecapIPIP(data []byte) (inner []byte, outerSrc, outerDst netip.Addr, err error) {
	if len(data) < 20 || data[0]>>4 != 4 {
		return nil, netip.Addr{}, netip.Addr{}, ErrNotIPIP
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl+20 {
		return nil, netip.Addr{}, netip.Addr{}, ErrTruncated
	}
	if Proto(data[9]) != ProtoIPIP {
		return nil, netip.Addr{}, netip.Addr{}, ErrNotIPIP
	}
	// The outer total length must cover both headers, as the buffer does.
	total := int(binary.BigEndian.Uint16(data[2:]))
	if total < ihl+20 || total > len(data) {
		return nil, netip.Addr{}, netip.Addr{}, ErrTruncated
	}
	outerSrc = netip.AddrFrom4([4]byte(data[12:16]))
	outerDst = netip.AddrFrom4([4]byte(data[16:20]))
	return data[ihl:total], outerSrc, outerDst, nil
}
