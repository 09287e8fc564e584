package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// TCP flag bits (subset relevant to connection tracking).
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagACK uint8 = 1 << 4
)

// Packet is the decoded form of an L3/L4 packet as the load balancer sees
// it. Payload is retained but not interpreted.
type Packet struct {
	Tuple    FiveTuple
	TCPFlags uint8 // zero for UDP
	Seq      uint32
	Payload  []byte
}

// IsSYN reports whether this is a bare SYN (connection-opening) segment.
func (p *Packet) IsSYN() bool { return p.TCPFlags&FlagSYN != 0 && p.TCPFlags&FlagACK == 0 }

// WireLen returns the packet's on-the-wire length in bytes under the
// canonical framing Marshal produces: 20 B IPv4 / 40 B IPv6 network header,
// 20 B TCP / 8 B UDP transport header, plus the payload. Hardware meters
// and byte counters charge this length, not a fixed-header guess.
func (p *Packet) WireLen() int {
	ip := 40
	if p.Tuple.Src.Is4() {
		ip = 20
	}
	l4 := 8
	if p.Tuple.Proto == ProtoTCP {
		l4 = 20
	}
	return ip + l4 + len(p.Payload)
}

// Errors returned by ParseFrame.
var (
	ErrTruncated   = errors.New("netproto: truncated packet")
	ErrBadVersion  = errors.New("netproto: unsupported IP version")
	ErrBadProtocol = errors.New("netproto: unsupported transport protocol")
)

// Marshal serializes the packet as an IPv4 or IPv6 header (by address
// family) followed by a TCP or UDP header and the payload. Checksums are
// computed for IPv4 header and the L4 pseudo-header sum.
func (p *Packet) Marshal(buf []byte) ([]byte, error) {
	if !p.Tuple.IsValid() {
		return nil, fmt.Errorf("netproto: invalid tuple %v", p.Tuple)
	}
	l4len := 8 + len(p.Payload) // UDP
	if p.Tuple.Proto == ProtoTCP {
		l4len = 20 + len(p.Payload)
	}
	buf = buf[:0]
	if p.Tuple.Src.Is4() {
		buf = appendIPv4Header(buf, p.Tuple, l4len)
	} else {
		buf = appendIPv6Header(buf, p.Tuple, l4len)
	}
	l4start := len(buf)
	switch p.Tuple.Proto {
	case ProtoTCP:
		buf = appendTCPHeader(buf, p)
	case ProtoUDP:
		buf = appendUDPHeader(buf, p, l4len)
	default:
		return nil, ErrBadProtocol
	}
	buf = append(buf, p.Payload...)
	fillL4Checksum(buf, p.Tuple, l4start)
	return buf, nil
}

func appendIPv4Header(buf []byte, t FiveTuple, l4len int) []byte {
	total := 20 + l4len
	start := len(buf)
	buf = append(buf,
		0x45, 0, byte(total>>8), byte(total),
		0, 0, 0x40, 0, // id, flags: DF
		64, byte(t.Proto), 0, 0) // ttl, proto, checksum placeholder
	src := t.Src.As4()
	dst := t.Dst.As4()
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	cs := checksum(buf[start:start+20], 0)
	binary.BigEndian.PutUint16(buf[start+10:], cs)
	return buf
}

func appendIPv6Header(buf []byte, t FiveTuple, l4len int) []byte {
	buf = append(buf,
		0x60, 0, 0, 0,
		byte(l4len>>8), byte(l4len), byte(t.Proto), 64)
	src := t.Src.As16()
	dst := t.Dst.As16()
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	return buf
}

func appendTCPHeader(buf []byte, p *Packet) []byte {
	var hdr [20]byte
	binary.BigEndian.PutUint16(hdr[0:], p.Tuple.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:], p.Tuple.DstPort)
	binary.BigEndian.PutUint32(hdr[4:], p.Seq)
	hdr[12] = 5 << 4 // data offset: 5 words
	hdr[13] = p.TCPFlags
	binary.BigEndian.PutUint16(hdr[14:], 65535) // window
	return append(buf, hdr[:]...)
}

func appendUDPHeader(buf []byte, p *Packet, l4len int) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint16(hdr[0:], p.Tuple.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:], p.Tuple.DstPort)
	binary.BigEndian.PutUint16(hdr[4:], uint16(l4len))
	return append(buf, hdr[:]...)
}

// fillL4Checksum computes and stores the TCP/UDP checksum over the
// pseudo-header and L4 segment in place.
func fillL4Checksum(pkt []byte, t FiveTuple, l4start int) {
	csOff := l4start + 16 // TCP checksum offset
	if t.Proto == ProtoUDP {
		csOff = l4start + 6
	}
	pkt[csOff], pkt[csOff+1] = 0, 0
	sum := pseudoHeaderSum(t, len(pkt)-l4start)
	cs := checksum(pkt[l4start:], sum)
	if t.Proto == ProtoUDP && cs == 0 {
		cs = 0xffff // UDP all-zero checksum means "no checksum"
	}
	binary.BigEndian.PutUint16(pkt[csOff:], cs)
}

func pseudoHeaderSum(t FiveTuple, l4len int) uint32 {
	var sum uint32
	addAddr := func(a netip.Addr) {
		if a.Is4() {
			b := a.As4()
			sum += uint32(binary.BigEndian.Uint16(b[0:])) + uint32(binary.BigEndian.Uint16(b[2:]))
		} else {
			b := a.As16()
			for i := 0; i < 16; i += 2 {
				sum += uint32(binary.BigEndian.Uint16(b[i:]))
			}
		}
	}
	addAddr(t.Src)
	addAddr(t.Dst)
	sum += uint32(t.Proto)
	sum += uint32(l4len)
	return sum
}

// checksum computes the ones-complement Internet checksum of data with an
// initial partial sum.
func checksum(data []byte, initial uint32) uint16 {
	sum := initial
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
