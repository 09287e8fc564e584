package ctrlplane

import (
	"encoding/binary"
	"math"
	"net/netip"

	"repro/internal/cuckoo"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// A record is what the switch software keeps about one installed connection
// beyond its ConnTable entry: the client end of its 5-tuple — source address
// and port — and the slot of the VIP it belongs to, and nothing else. The
// rest of the tuple (destination address, port, protocol) is that VIP, so it
// is read from the slot's vipCtl instead of being kept once per connection;
// the pool version is the entry's value. When traffic was last seen is kept
// beside the records, not in them, and only by a store that ages
// (slab.seen).
//
//	IPv4  [8]byte:  src 4 | sport 2 | slot 2
//	IPv6  [20]byte: src 16 | sport 2 | slot 2   (ports and slot big-endian)
//
// A record holds no pointer, so the collector never scans a chunk of them.
// That is also why the source address's zone is not kept: a zone is a
// pointer inside the address, and KeyBytes and LaneHash leave it out, so it
// was never part of a connection's identity. A tuple read back has a
// zone-less source and the VIP's destination exactly as it was registered.
//
// clientKey is the record's type, by family.
type clientKey interface{ [8]byte | [20]byte }

// Records are allocated in fixed chunks and never move: slack is at most
// one chunk per family however many connections there are, and a test
// switch with a hundred connections pays for one. 1024 IPv4 records are
// 8 KB and 1024 IPv6 records 20 KB, each exactly an allocator size class
// (8 and 20 B a record); 1024 last-seen times are 8 KB.
const (
	recordChunkBits = 10
	recordChunkLen  = 1 << recordChunkBits

	// recordV6 is the bit of a record index that names the family; the rest
	// numbers the record within it, from 1.
	recordV6 = 1 << 31

	// vacant is the last-seen time of a record no connection holds: later
	// than any aging step, so the sweep never finds it idle and never takes
	// it for the oldest. (A connection may have been seen at time 0.)
	vacant = simtime.Time(math.MaxInt64)
)

// slab holds one family's records.
type slab[K clientKey] struct {
	chunks []*[recordChunkLen]K
	// seen holds, under the same numbers, when each connection last saw
	// traffic — vacant for a record not handed out — and is what the aging
	// sweep reads, so its chunks exist only in a store that ages and a touch
	// or a sweep reads a dense array of times.
	seen  []*[recordChunkLen]simtime.Time
	drawn uint32 // numbers 1..drawn have been handed out at least once
	free  uint32 // most recently vacated record, 0 = none
}

// at returns record n in place; the pointer stays valid for the record's
// lifetime.
func (s *slab[K]) at(n uint32) *K {
	return &s.chunks[n>>recordChunkBits][n%recordChunkLen]
}

// A vacated record is zero but for its first four bytes, which number the
// record vacated before it (little-endian; 0 ends the list). alloc zeroes
// them before the record is handed out, so a link never reads as an address.
func link[K clientKey](k *K) uint32 {
	return uint32((*k)[0]) | uint32((*k)[1])<<8 | uint32((*k)[2])<<16 | uint32((*k)[3])<<24
}

func setLink[K clientKey](k *K, n uint32) {
	(*k)[0], (*k)[1], (*k)[2], (*k)[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
}

// alloc hands out a zeroed record, the most recently vacated one first. A
// store that ages grows its last-seen chunks in step with its records.
func (s *slab[K]) alloc(aging bool) (uint32, *K) {
	if n := s.free; n != 0 {
		k := s.at(n)
		s.free = link(k)
		setLink(k, 0)
		return n, k
	}
	s.drawn++
	if int(s.drawn>>recordChunkBits) == len(s.chunks) {
		s.chunks = append(s.chunks, new([recordChunkLen]K))
		if aging {
			seen := new([recordChunkLen]simtime.Time)
			for j := range seen {
				seen[j] = vacant
			}
			s.seen = append(s.seen, seen)
		}
	}
	return s.drawn, s.at(s.drawn)
}

// release vacates record n, zeroing the ended connection's client end.
func (s *slab[K]) release(n uint32) {
	k := s.at(n)
	var zero K
	*k = zero
	setLink(k, s.free)
	s.free = n
	if s.seen != nil {
		s.seen[n>>recordChunkBits][n%recordChunkLen] = vacant
	}
}

// recordStore holds the records, addressed by the 32-bit index each
// ConnTable entry carries in its software half (cuckoo.Entry.Record). The
// table is the only index: finding a connection's record is the exact probe
// the CPU makes anyway, and the index moves with the entry. A record exists
// per connection, not per table slot, so a half-empty table does not pay
// for its free slots, and an IPv4 connection does not pay for an IPv6
// address. Index 0 means "no record" and is never handed out.
type recordStore struct {
	v4   slab[[8]byte]
	v6   slab[[20]byte]
	live int
	// aging is set, before the first alloc, by a control plane with an
	// AgingTimeout: only then does a record have a last-seen time.
	aging bool
}

// alloc hands out a record holding tuple's client end under VIP slot, last
// seen now.
func (s *recordStore) alloc(tuple netproto.FiveTuple, slot uint16, now simtime.Time) uint32 {
	s.live++
	var i uint32
	if tuple.Src.Is4() {
		n, k := s.v4.alloc(s.aging)
		*(*[4]byte)(k[:4]) = tuple.Src.As4()
		putPortSlot(k[4:], tuple.SrcPort, slot)
		i = n
	} else {
		n, k := s.v6.alloc(s.aging)
		*(*[16]byte)(k[:16]) = tuple.Src.As16()
		putPortSlot(k[16:], tuple.SrcPort, slot)
		i = n | recordV6
	}
	if s.aging {
		*s.lastSeen(i) = now
	}
	return i
}

func putPortSlot(b []byte, port, slot uint16) {
	binary.BigEndian.PutUint16(b, port)
	binary.BigEndian.PutUint16(b[2:], slot)
}

// release vacates record i.
func (s *recordStore) release(i uint32) {
	if i&recordV6 == 0 {
		s.v4.release(i)
	} else {
		s.v6.release(i &^ recordV6)
	}
	s.live--
}

// lastSeen returns record i's last-seen time in place. Only a store that
// ages has one.
func (s *recordStore) lastSeen(i uint32) *simtime.Time {
	seen := s.v4.seen
	if i&recordV6 != 0 {
		seen, i = s.v6.seen, i&^recordV6
	}
	return &seen[i>>recordChunkBits][i%recordChunkLen]
}

// slot returns the VIP slot record i was allocated under.
func (s *recordStore) slot(i uint32) uint16 {
	if i&recordV6 == 0 {
		return binary.BigEndian.Uint16(s.v4.at(i)[6:])
	}
	return binary.BigEndian.Uint16(s.v6.at(i &^ recordV6)[18:])
}

// tuple rebuilds the 5-tuple record i stands for; vip is its slot's VIP.
func (s *recordStore) tuple(i uint32, vip dataplane.VIP) netproto.FiveTuple {
	t := netproto.FiveTuple{Dst: vip.Addr, DstPort: vip.Port, Proto: vip.Proto}
	if i&recordV6 == 0 {
		k := s.v4.at(i)
		t.Src, t.SrcPort = netip.AddrFrom4([4]byte(k[:4])), binary.BigEndian.Uint16(k[4:])
	} else {
		k := s.v6.at(i &^ recordV6)
		t.Src, t.SrcPort = netip.AddrFrom16([16]byte(k[:16])), binary.BigEndian.Uint16(k[16:])
	}
	return t
}

// conn returns the VIP record i belongs to and the 5-tuple it stands for.
// A slot is freed only once its VIP's records are released, so the slot of
// a live record always names its own VIP.
func (cp *ControlPlane) conn(i uint32) (*vipCtl, netproto.FiveTuple) {
	vc := cp.bySlot[cp.conns.slot(i)]
	return vc, cp.conns.tuple(i, vc.vip)
}

// recordKeyHash is the ConnTable's record hasher: the key hash of the
// connection record i stands for. The table keeps no key hashes of its own.
func (cp *ControlPlane) recordKeyHash(i uint32) uint64 {
	_, tuple := cp.conn(i)
	return cp.sw.KeyHash(tuple)
}

// tracked is the CPU's exact probe for the connection keyed kh with digest
// dg: its ConnTable entry, whose Record indexes its record. Only entries
// whose digest is dg have their key hash derived from their record.
func (cp *ControlPlane) tracked(kh uint64, dg uint32) (cuckoo.Entry, bool) {
	return cp.sw.ConnTable().FindDigest(kh, dg)
}
