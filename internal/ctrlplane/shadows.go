package ctrlplane

import (
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// connShadow is the switch software's exact record of one installed
// connection. The VIP is the tuple's destination and is derived, not
// stored.
type connShadow struct {
	tuple     netproto.FiveTuple
	version   uint32
	installed bool
	lastSeen  simtime.Time
}

func (sh *connShadow) vip() dataplane.VIP { return dataplane.VIPOf(sh.tuple) }

// shadowTable holds the shadows by value in one slab, indexed by key hash:
// a connection's lifecycle allocates no heap object (a vacated slot is
// reused by the next install), and an update writes through a pointer into
// the slab. The slab rather than a map of shadow values because the map's
// empty slots would each be a whole shadow wide — measured +20 % heap per
// connection at a million entries, and varying run to run with the map's
// hash seed — where here they are four bytes.
type shadowTable struct {
	slot map[uint64]uint32 // keyHash -> index into slab
	slab []connShadow
	free []uint32 // vacated slab indices
}

func newShadowTable() shadowTable {
	return shadowTable{slot: make(map[uint64]uint32)}
}

func (t *shadowTable) len() int { return len(t.slot) }

// get returns kh's shadow, or nil. The pointer is valid until the next put.
func (t *shadowTable) get(kh uint64) *connShadow {
	i, ok := t.slot[kh]
	if !ok {
		return nil
	}
	return &t.slab[i]
}

// put records sh as kh's shadow and returns it in place.
func (t *shadowTable) put(kh uint64, sh connShadow) *connShadow {
	i, ok := t.slot[kh]
	switch {
	case ok:
	case len(t.free) > 0:
		i = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	default:
		i = uint32(len(t.slab))
		t.slab = append(t.slab, connShadow{})
	}
	t.slot[kh] = i
	t.slab[i] = sh
	return &t.slab[i]
}

// delete forgets kh's shadow, zeroing its slot so nothing it referenced
// stays reachable.
func (t *shadowTable) delete(kh uint64) {
	i, ok := t.slot[kh]
	if !ok {
		return
	}
	delete(t.slot, kh)
	t.slab[i] = connShadow{}
	t.free = append(t.free, i)
}
