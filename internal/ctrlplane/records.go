package ctrlplane

import (
	"repro/internal/cuckoo"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// connRecord is what the switch software keeps about one installed
// connection beyond its ConnTable entry: the full 5-tuple the entry's key
// hash stands for, and when traffic was last seen. The pool version is the
// entry's value and the VIP is the tuple's destination; neither is stored
// twice.
type connRecord struct {
	tuple netproto.FiveTuple
	// lastSeen feeds the aging wheel. A vacated record is zeroed and keeps
	// the index of the next vacated record here instead.
	lastSeen simtime.Time
}

// Records are allocated in fixed chunks and never move: slack is at most
// one chunk however many connections there are, and a test switch with a
// hundred connections pays for one. A chunk is a whole number of pages and
// too large for the allocator's size classes, which would round a smaller
// pointer-carrying chunk up by an eighth (16 KB + its type header lands in
// the 18 KB class).
const (
	recordChunkBits = 10
	recordChunkLen  = 1 << recordChunkBits // 1024 records, 64 KB
)

// recordStore holds the connRecords, addressed by the 32-bit index each
// ConnTable entry carries in its software half (cuckoo.Entry.Record). The
// table is the only index: finding a connection's record is the exact probe
// the CPU makes anyway, and the index moves with the entry. A record exists
// per connection, not per table slot, so a half-empty table does not pay
// for its free slots. Index 0 means "no record" and is never handed out.
type recordStore struct {
	chunks []*[recordChunkLen]connRecord
	drawn  uint32 // indices 1..drawn have been handed out at least once
	free   uint32 // most recently vacated record, 0 = none
	live   int
}

// at returns record i in place; the pointer stays valid for the record's
// lifetime.
func (s *recordStore) at(i uint32) *connRecord {
	return &s.chunks[i>>recordChunkBits][i%recordChunkLen]
}

// alloc hands out a zeroed record, the most recently vacated one first.
func (s *recordStore) alloc() uint32 {
	s.live++
	if i := s.free; i != 0 {
		r := s.at(i)
		s.free, r.lastSeen = uint32(r.lastSeen), 0
		return i
	}
	s.drawn++
	if int(s.drawn>>recordChunkBits) == len(s.chunks) {
		s.chunks = append(s.chunks, new([recordChunkLen]connRecord))
	}
	return s.drawn
}

// release vacates record i, zeroing it so nothing it referenced stays
// reachable.
func (s *recordStore) release(i uint32) {
	*s.at(i) = connRecord{lastSeen: simtime.Time(s.free)}
	s.free = i
	s.live--
}

// tracked is the CPU's exact probe for the connection keyed kh: its
// ConnTable entry, whose Record indexes its connRecord. ok is false when no
// entry is installed, or the entry was installed without a record (behind
// the control plane's back), which the control plane does not track.
func (cp *ControlPlane) tracked(kh uint64) (e cuckoo.Entry, ok bool) {
	e, ok = cp.sw.ConnTable().Find(kh)
	return e, ok && e.Record != 0
}
