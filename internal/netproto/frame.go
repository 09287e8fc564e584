package netproto

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Frame is the parse-once view of a raw packet — the wire-native currency
// of the packet path. Where Packet is a decoded struct that has forgotten
// the bytes it came from, a Frame keeps the raw buffer and carries the
// header offsets forward, so every later stage (pipe sharding, hashing,
// metering, destination rewrite, TX encapsulation) works on the original
// bytes with zero re-decode. This is the software analogue of how a
// switching ASIC structures the pipeline: parse once at ingress, thread
// the extracted fields and offsets through the match-action stages, and
// apply rewrites in place at deparse.
//
// ParseFrame fills a Frame in a single pass. The Data slice aliases (a
// prefix of) the caller's buffer; the Frame is valid only as long as those
// bytes are. Reusing one Frame across packets is the intended pattern —
// ParseFrame fully resets it.
//
// Ownership/aliasing rules (see DESIGN.md "Wire path"):
//   - Data aliases the parse input; nothing in the pipeline retains it
//     past the processing call.
//   - The pipeline reads a Frame but never writes it, so a frame can be
//     read by several callers at once.
//   - RewriteDst mutates Data in place (and Tuple to match); it must only
//     run after processing decided the verdict, on the TX side.
type Frame struct {
	// Data is the raw L3 frame, trimmed to the IP total length when the
	// header declares less than the buffer holds (trailing bytes beyond
	// the IP framing are not part of the packet).
	Data []byte

	// Tuple, TCPFlags and Seq are the fields the pipeline matches on,
	// extracted by the single parse pass (Seq and TCPFlags are zero for
	// UDP).
	Tuple    FiveTuple
	TCPFlags uint8
	Seq      uint32

	// L4 is the transport header's offset into Data (the IPv4 IHL or 40
	// for IPv6); PayloadOff is the payload's offset (past the TCP data
	// offset or the 8-byte UDP header).
	L4         int
	PayloadOff int

	// synthLen is the wire length of a synthetic frame (Data == nil), set by
	// Packet.Frame.
	synthLen uint32
}

// ParseFrame parses a raw IPv4/IPv6 packet into f in one pass: five-tuple,
// TCP flags, header offsets. It accepts exactly the packets the reference
// decoder in decode_test.go accepts and extracts identical fields; f.Data aliases data (trimmed to the IP
// framing). Any previous contents of f are discarded.
func ParseFrame(data []byte, f *Frame) error {
	*f = Frame{}
	if len(data) < 1 {
		return ErrTruncated
	}
	switch data[0] >> 4 {
	case 4:
		if len(data) < 20 {
			return ErrTruncated
		}
		ihl := int(data[0]&0x0f) * 4
		if ihl < 20 || len(data) < ihl {
			return ErrTruncated
		}
		total := int(binary.BigEndian.Uint16(data[2:]))
		if total > len(data) {
			return ErrTruncated
		}
		if total >= ihl {
			data = data[:total]
		}
		f.Tuple.Proto = Proto(data[9])
		f.Tuple.Src = netip.AddrFrom4([4]byte(data[12:16]))
		f.Tuple.Dst = netip.AddrFrom4([4]byte(data[16:20]))
		f.L4 = ihl
	case 6:
		if len(data) < 40 {
			return ErrTruncated
		}
		plen := int(binary.BigEndian.Uint16(data[4:]))
		if plen <= len(data)-40 {
			data = data[:40+plen]
		}
		f.Tuple.Proto = Proto(data[6])
		f.Tuple.Src = netip.AddrFrom16([16]byte(data[8:24]))
		f.Tuple.Dst = netip.AddrFrom16([16]byte(data[24:40]))
		f.L4 = 40
	default:
		return ErrBadVersion
	}
	l4 := data[f.L4:]
	switch f.Tuple.Proto {
	case ProtoTCP:
		if len(l4) < 20 {
			return ErrTruncated
		}
		off := int(l4[12]>>4) * 4
		if off < 20 || off > len(l4) {
			return ErrTruncated
		}
		f.Tuple.SrcPort = binary.BigEndian.Uint16(l4[0:])
		f.Tuple.DstPort = binary.BigEndian.Uint16(l4[2:])
		f.Seq = binary.BigEndian.Uint32(l4[4:])
		f.TCPFlags = l4[13]
		f.PayloadOff = f.L4 + off
	case ProtoUDP:
		if len(l4) < 8 {
			return ErrTruncated
		}
		f.Tuple.SrcPort = binary.BigEndian.Uint16(l4[0:])
		f.Tuple.DstPort = binary.BigEndian.Uint16(l4[2:])
		f.PayloadOff = f.L4 + 8
	default:
		return ErrBadProtocol
	}
	f.Data = data
	return nil
}

// WireLen returns the frame's on-the-wire length in bytes — the L3 byte
// count meters and byte counters charge. For a parsed frame this is the
// length of the bytes that really arrived; a synthetic frame (Data == nil,
// built by Packet.Frame) carries Packet.WireLen's canonical-framing
// reconstruction instead. The two agree for canonically framed packets
// (Marshal output).
func (f *Frame) WireLen() int {
	if f.Data == nil {
		return int(f.synthLen)
	}
	return len(f.Data)
}

// Payload returns the transport payload (aliasing Data).
func (f *Frame) Payload() []byte { return f.Data[f.PayloadOff:] }

// IsSYN reports whether this is a bare SYN (connection-opening) segment.
func (f *Frame) IsSYN() bool { return f.TCPFlags&FlagSYN != 0 && f.TCPFlags&FlagACK == 0 }

// Frame fills f with the packet's synthetic frame — the one Packet -> Frame
// conversion, applied at the edge so nothing below it handles two
// currencies. f carries exactly what the pipeline matches on and charges
// (tuple, flags, sequence number, the canonical WireLen) and no bytes:
// Data stays nil and the payload is not referenced. Any previous contents
// of f are discarded.
func (p *Packet) Frame(f *Frame) {
	*f = Frame{}
	f.Tuple, f.TCPFlags, f.Seq = p.Tuple, p.TCPFlags, p.Seq
	f.synthLen = uint32(p.WireLen())
}

// RewriteDst rewrites the frame's destination address and port in place to
// dip — the forwarding action the SilkRoad ASIC applies at deparse —
// fixing the IPv4 header checksum and the L4 checksum using the offsets
// cached at parse time: no re-decode. The address family of dip must match
// the frame's. Tuple is updated to the rewritten destination.
func (f *Frame) RewriteDst(dip netip.AddrPort) error {
	if dip.Addr().Is4() != f.Tuple.Dst.Is4() {
		return fmt.Errorf("netproto: address family mismatch rewriting to %v", dip)
	}
	pkt := f.Data
	if f.Tuple.Dst.Is4() {
		b := dip.Addr().As4()
		copy(pkt[16:20], b[:])
		// Recompute IPv4 header checksum over the cached header extent.
		pkt[10], pkt[11] = 0, 0
		binary.BigEndian.PutUint16(pkt[10:], checksum(pkt[:f.L4], 0))
	} else {
		b := dip.Addr().As16()
		copy(pkt[24:40], b[:])
	}
	binary.BigEndian.PutUint16(pkt[f.L4+2:], dip.Port())
	f.Tuple.Dst = dip.Addr()
	f.Tuple.DstPort = dip.Port()
	fillL4Checksum(pkt, f.Tuple, f.L4)
	return nil
}
