package ctrlplane

import "testing"

// TestShadowTableReusesSlots: a deleted shadow's slab slot is zeroed and
// taken by the next put, so churn at a steady connection count neither
// grows the slab nor keeps ended connections' tuples reachable.
func TestShadowTableReusesSlots(t *testing.T) {
	st := newShadowTable()
	for k := uint64(1); k <= 3; k++ {
		st.put(k, connShadow{tuple: tupleN(int(k)), version: uint32(k), installed: true})
	}
	st.delete(2)
	if st.get(2) != nil || st.len() != 2 {
		t.Fatalf("after delete: get(2)=%v len=%d", st.get(2), st.len())
	}
	if st.slab[1] != (connShadow{}) {
		t.Fatalf("vacated slot still holds %+v", st.slab[1])
	}
	st.delete(2) // absent: a no-op, not a second free-list entry
	sh := st.put(4, connShadow{tuple: tupleN(4), version: 4, installed: true})
	if len(st.slab) != 3 || sh != &st.slab[1] {
		t.Fatalf("put after delete grew the slab to %d instead of reusing slot 1", len(st.slab))
	}
	sh.version = 9 // updates write through
	if got := st.get(4); got.version != 9 || got.tuple != tupleN(4) {
		t.Fatalf("get(4) = %+v", got)
	}
	if got := st.get(3); got == nil || got.version != 3 {
		t.Fatalf("get(3) = %+v", got)
	}
	st.put(5, connShadow{tuple: tupleN(5)})
	if len(st.slab) != 4 || len(st.free) != 0 {
		t.Fatalf("slab %d slots, %d free; want 4 and 0", len(st.slab), len(st.free))
	}
}
