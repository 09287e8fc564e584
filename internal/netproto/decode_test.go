package netproto

import (
	"encoding/binary"
	"net/netip"
)

// Decode parses a raw IPv4/IPv6 packet into p, reusing p's storage. The
// payload slice aliases data. It is the differential reference for
// ParseFrame: a plainer parser that fills a Packet field by field, and
// FuzzParseFrame and TestParseFrameAgreesWithDecode check that ParseFrame
// accepts exactly the packets Decode accepts and extracts the same fields.
func Decode(data []byte, p *Packet) error {
	if len(data) < 1 {
		return ErrTruncated
	}
	switch data[0] >> 4 {
	case 4:
		return decodeIPv4(data, p)
	case 6:
		return decodeIPv6(data, p)
	default:
		return ErrBadVersion
	}
}

func decodeIPv4(data []byte, p *Packet) error {
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
	p.Tuple.Proto = Proto(data[9])
	p.Tuple.Src = netip.AddrFrom4([4]byte(data[12:16]))
	p.Tuple.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	return decodeL4(data[ihl:], p)
}

func decodeIPv6(data []byte, p *Packet) error {
	if len(data) < 40 {
		return ErrTruncated
	}
	plen := int(binary.BigEndian.Uint16(data[4:]))
	p.Tuple.Proto = Proto(data[6])
	p.Tuple.Src = netip.AddrFrom16([16]byte(data[8:24]))
	p.Tuple.Dst = netip.AddrFrom16([16]byte(data[24:40]))
	l4 := data[40:]
	if plen <= len(l4) {
		l4 = l4[:plen]
	}
	return decodeL4(l4, p)
}

func decodeL4(data []byte, p *Packet) error {
	switch p.Tuple.Proto {
	case ProtoTCP:
		if len(data) < 20 {
			return ErrTruncated
		}
		p.Tuple.SrcPort = binary.BigEndian.Uint16(data[0:])
		p.Tuple.DstPort = binary.BigEndian.Uint16(data[2:])
		p.Seq = binary.BigEndian.Uint32(data[4:])
		p.TCPFlags = data[13]
		off := int(data[12]>>4) * 4
		if off < 20 || off > len(data) {
			return ErrTruncated
		}
		p.Payload = data[off:]
	case ProtoUDP:
		if len(data) < 8 {
			return ErrTruncated
		}
		p.Tuple.SrcPort = binary.BigEndian.Uint16(data[0:])
		p.Tuple.DstPort = binary.BigEndian.Uint16(data[2:])
		p.TCPFlags = 0
		p.Seq = 0
		p.Payload = data[8:]
	default:
		return ErrBadProtocol
	}
	return nil
}
