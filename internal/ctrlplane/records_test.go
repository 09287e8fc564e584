package ctrlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// storeVIPs are the VIPs a record-store script files its connections under,
// by family, with slots that use both bytes of the field. One IPv6 VIP is
// IPv4-mapped: its connections must stay 16-byte records.
var storeVIPs = [2][]struct {
	slot uint16
	vip  dataplane.VIP
}{
	{
		{0, dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}},
		{0x1234, dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.2"), Port: 443, Proto: netproto.ProtoUDP}},
	},
	{
		{1, dataplane.VIP{Addr: netip.MustParseAddr("2001:db8::1"), Port: 80, Proto: netproto.ProtoTCP}},
		{0xffff, dataplane.VIP{Addr: netip.MustParseAddr("::ffff:20.0.0.3"), Port: 8080, Proto: netproto.ProtoTCP}},
	},
}

// storeTuple draws a random connection of the given family to one of
// storeVIPs and returns it with its VIP's slot.
func storeTuple(rng *rand.Rand, v4 bool) (netproto.FiveTuple, uint16) {
	fam := storeVIPs[1]
	if v4 {
		fam = storeVIPs[0]
	}
	v := fam[rng.Intn(len(fam))]
	var a [16]byte
	rng.Read(a[:])
	t := netproto.FiveTuple{Dst: v.vip.Addr, SrcPort: uint16(rng.Uint32()), DstPort: v.vip.Port, Proto: v.vip.Proto}
	switch {
	case v4:
		t.Src = netip.AddrFrom4([4]byte(a[:4]))
	case v.vip.Addr.Is4In6():
		t.Src = netip.AddrFrom16(netip.AddrFrom4([4]byte(a[:4])).As16())
	default:
		t.Src = netip.AddrFrom16(a)
	}
	return t, v.slot
}

// storeVIP returns the VIP of slot.
func storeVIP(t *testing.T, slot uint16) dataplane.VIP {
	for _, fam := range storeVIPs {
		for _, v := range fam {
			if v.slot == slot {
				return v.vip
			}
		}
	}
	t.Fatalf("record names slot %#x, which no VIP holds", slot)
	return dataplane.VIP{}
}

// TestRecordStoreDifferential drives the store with a seeded script of
// allocs, lastSeen writes and releases in both families against a map
// oracle, once as a store that ages and once as one that does not: every
// record reads back the slot and, under that slot's VIP, the tuple (and,
// aging, the time) last written, index 0 is never handed out, a vacated
// record holds nothing but its free-list link and is the next one its
// family hands out, and live is exact. The population passes 1024 a family,
// so records cross chunk boundaries. A store that does not age never
// allocates a last-seen chunk.
func TestRecordStoreDifferential(t *testing.T) {
	for _, aging := range []bool{false, true} {
		recordStoreScript(t, aging)
	}
}

func recordStoreScript(t *testing.T, aging bool) {
	type want struct {
		tuple    netproto.FiveTuple
		slot     uint16
		lastSeen simtime.Time
	}
	var (
		st      = recordStore{aging: aging}
		rng     = rand.New(rand.NewSource(21))
		oracle  = map[uint32]want{}
		live    []uint32    // the oracle's keys, for drawing one at random
		vacated [2][]uint32 // per family, most recent last
		drawn   [2]uint32   // per family, fresh numbers handed out
		family  = func(i uint32) int { return int(i >> 31) }
	)
	check := func(op int, i uint32) {
		t.Helper()
		w := oracle[i]
		if slot := st.slot(i); slot != w.slot {
			t.Fatalf("op %d: record %#x names slot %#x, want %#x", op, i, slot, w.slot)
		}
		if got := st.tuple(i, storeVIP(t, w.slot)); got != w.tuple {
			t.Fatalf("op %d: record %#x = %v, want %v", op, i, got, w.tuple)
		}
		if aging && *st.lastSeen(i) != w.lastSeen {
			t.Fatalf("op %d: record %#x seen %d, want %d", op, i, *st.lastSeen(i), w.lastSeen)
		}
	}
	for op := 0; op < 100_000; op++ {
		now := simtime.Time(op + 1)
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0 || (len(live) < 3000 && r < 6):
			v4 := rng.Intn(2) == 0
			tuple, slot := storeTuple(rng, v4)
			i := st.alloc(tuple, slot, now)
			f := family(i)
			if (f == 0) != v4 || i&^recordV6 == 0 {
				t.Fatalf("op %d: alloc(%v) = %#x: wrong family or number 0", op, tuple, i)
			}
			if _, dup := oracle[i]; dup {
				t.Fatalf("op %d: alloc handed out live record %#x", op, i)
			}
			if n := len(vacated[f]); n > 0 {
				if i != vacated[f][n-1] {
					t.Fatalf("op %d: alloc = %#x, want the most recently vacated %#x", op, i, vacated[f][n-1])
				}
				vacated[f] = vacated[f][:n-1]
			} else if drawn[f]++; i&^recordV6 != drawn[f] {
				t.Fatalf("op %d: fresh alloc = %#x, want number %d", op, i, drawn[f])
			}
			oracle[i] = want{tuple, slot, now}
			live = append(live, i)
			// A reused record round-trips its tuple: the link it held while
			// vacated is not part of its address.
			check(op, i)
		case r < 7:
			i := live[rng.Intn(len(live))]
			if aging {
				*st.lastSeen(i) = now
				w := oracle[i]
				w.lastSeen = now
				oracle[i] = w
			}
			check(op, i)
		default:
			k := rng.Intn(len(live))
			i := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(oracle, i)
			f := family(i)
			var link uint32
			if n := len(vacated[f]); n > 0 {
				link = vacated[f][n-1] &^ recordV6
			}
			st.release(i)
			vacated[f] = append(vacated[f], i)
			// Nothing of the ended connection is left: the free-list link
			// in the first four bytes, zeroes after.
			if f == 0 {
				want := [8]byte{byte(link), byte(link >> 8), byte(link >> 16), byte(link >> 24)}
				if got := *st.v4.at(i); got != want {
					t.Fatalf("op %d: vacated IPv4 record %d holds %x, want only link %d", op, i, got, link)
				}
			} else {
				want := [20]byte{byte(link), byte(link >> 8), byte(link >> 16), byte(link >> 24)}
				if got := *st.v6.at(i &^ recordV6); got != want {
					t.Fatalf("op %d: vacated IPv6 record %d holds %x, want only link %d", op, i&^recordV6, got, link)
				}
			}
		}
		if st.live != len(oracle) {
			t.Fatalf("op %d: live = %d, oracle holds %d", op, st.live, len(oracle))
		}
		if len(live) > 0 {
			check(op, live[rng.Intn(len(live))])
		}
		if op%5000 == 4999 {
			for i := range oracle {
				check(op, i)
			}
		}
	}
	for f, n := range drawn {
		if n <= recordChunkLen {
			t.Fatalf("family %d drew only %d records: the script never left the first chunk", f, n)
		}
	}
	// Growth is one chunk at a time: no more chunks than the records drawn
	// need, and a last-seen chunk beside each only in a store that ages.
	for f, got := range [2][2]int{{len(st.v4.chunks), len(st.v4.seen)}, {len(st.v6.chunks), len(st.v6.seen)}} {
		want := int(drawn[f]>>recordChunkBits) + 1
		wantSeen := 0
		if aging {
			wantSeen = want
		}
		if got[0] != want || got[1] != wantSeen {
			t.Fatalf("family %d, aging %v: %d record and %d last-seen chunks for %d records drawn, want %d and %d",
				f, aging, got[0], got[1], drawn[f], want, wantSeen)
		}
	}
}

// TestSlabReuseZeroed: a record handed out again after a release reads back
// all-zero — neither the ended connection's client end nor the free-list
// link it held in between — in both families and across chunk boundaries,
// and comes back most-recently-vacated first.
func TestSlabReuseZeroed(t *testing.T) {
	slabReuse[[8]byte](t)
	slabReuse[[20]byte](t)
}

func slabReuse[K clientKey](t *testing.T) {
	var (
		s     slab[K]
		zero  K
		rng   = rand.New(rand.NewSource(23))
		order []uint32
	)
	const n = 3*recordChunkLen + 5
	for i := uint32(1); i <= n; i++ {
		got, k := s.alloc(false)
		if got != i || *k != zero {
			t.Fatalf("fresh alloc = %d holding %x, want %d and zeroes", got, *k, i)
		}
		for b := 0; b < len(*k); b++ {
			(*k)[b] = 0xff
		}
		order = append(order, i)
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, i := range order {
		s.release(i)
	}
	for j := len(order) - 1; j >= 0; j-- {
		got, k := s.alloc(false)
		if got != order[j] || *k != zero {
			t.Fatalf("%T: reused alloc = %d holding %x, want %d and zeroes", zero, got, *k, order[j])
		}
		for b := 0; b < len(*k); b++ {
			(*k)[b] = 0xff
		}
	}
	if s.free != 0 || s.drawn != n {
		t.Fatalf("%T: after reusing every record free = %d, drawn = %d, want 0 and %d", zero, s.free, s.drawn, n)
	}
}

// TestRecordsArePointerFree: neither family's record chunk, nor the chunk of
// last-seen times beside it, holds anything the collector would have to
// scan, and none outgrows its chunk arithmetic (8 KB, 20 KB and 8 KB per
// 1024: 8- and 20-byte records). A field that adds a pointer, or a byte,
// makes a million-record store scannable or a size class bigger.
func TestRecordsArePointerFree(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: the collector would scan every chunk", path, ty.Kind())
		}
	}
	var st recordStore
	for _, c := range []struct {
		name  string
		chunk reflect.Type // the slab field's element: a pointer to one chunk
		size  uintptr
	}{
		{"v4.chunks", reflect.TypeOf(st.v4.chunks).Elem(), 8 << 10},
		{"v6.chunks", reflect.TypeOf(st.v6.chunks).Elem(), 20 << 10},
		{"v4.seen", reflect.TypeOf(st.v4.seen).Elem(), 8 << 10},
		{"v6.seen", reflect.TypeOf(st.v6.seen).Elem(), 8 << 10},
	} {
		chunk := c.chunk.Elem()
		walk(chunk, c.name)
		if chunk.Size() != c.size {
			t.Errorf("a %s chunk is %d bytes, want %d", c.name, chunk.Size(), c.size)
		}
	}
}

// learn sends a SYN for each of tuples [from, to) and runs the CPU until
// they are installed.
func (h *harness) learn(now simtime.Time, from, to int) simtime.Time {
	for i := from; i < to; i++ {
		h.send(now, tupleN(i), netproto.FlagSYN)
		now = now.Add(1000)
	}
	now = now.Add(simtime.Duration(20 * simtime.Millisecond))
	h.cp.Advance(now)
	return now
}

// checkTracked asserts the store and the table agree on how many
// connections there are.
func (h *harness) checkTracked(want int) {
	h.t.Helper()
	if got, tab := h.cp.TrackedConns(), h.sw.ConnTable().Len(); got != want || tab != want {
		h.t.Fatalf("TrackedConns = %d, ConnTable().Len() = %d, want %d", got, tab, want)
	}
}

// TestRecordsReusedAfterEndConnection: ending connections frees their
// records for the next installs — steady churn never draws a fresh index.
func TestRecordsReusedAfterEndConnection(t *testing.T) {
	h := defaultHarness(t)
	now := h.learn(0, 0, 300)
	h.checkTracked(300)
	drawn := h.cp.conns.v4.drawn
	for round := 0; round < 5; round++ {
		for i := 0; i < 300; i += 2 {
			h.cp.EndConnection(now, tupleN(round*1000+i))
		}
		h.checkTracked(150)
		for i := 0; i < 300; i += 2 {
			h.send(now, tupleN((round+1)*1000+i), netproto.FlagSYN)
			now = now.Add(1000)
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
		h.cp.Advance(now)
		h.checkTracked(300)
		// Odd tuples live on; move them to the next round's key space too.
		for i := 1; i < 300; i += 2 {
			h.cp.EndConnection(now, tupleN(round*1000+i))
			h.send(now, tupleN((round+1)*1000+i), netproto.FlagSYN)
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
		h.cp.Advance(now)
		h.checkTracked(300)
	}
	if h.cp.conns.v4.drawn != drawn {
		t.Fatalf("churn at 300 connections drew fresh records: %d -> %d", drawn, h.cp.conns.v4.drawn)
	}
	if h.violations != 0 {
		t.Fatalf("violations = %d", h.violations)
	}
}

// TestTrackedConnsMatchesConnTable: the record count equals the table's
// entry count through learning, ends, a VIP withdrawal, an import and its
// unwinding — no path leaves a record without an entry or an entry without
// a record.
func TestTrackedConnsMatchesConnTable(t *testing.T) {
	h, recv := handoffPair(t, DefaultConfig())
	other := dataplane.VIP{Addr: tupleOther(0).Dst, Port: 80, Proto: netproto.ProtoTCP}
	if err := h.cp.AddVIP(0, other, poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	now := h.learn(0, 0, 200)
	for i := 0; i < 80; i++ {
		h.send(now, tupleOther(i), netproto.FlagSYN)
		now = now.Add(1000)
	}
	now = now.Add(simtime.Duration(20 * simtime.Millisecond))
	h.cp.Advance(now)
	h.checkTracked(280)

	for i := 0; i < 200; i += 4 {
		h.cp.EndConnection(now, tupleN(i))
	}
	h.cp.EndConnection(now, tupleN(0)) // already ended: a no-op
	h.checkTracked(230)

	if err := h.cp.RemoveVIP(now, other); err != nil {
		t.Fatal(err)
	}
	h.checkTracked(150)
	for i := 0; i < 80; i++ {
		if _, ok := h.sw.LookupConn(tupleOther(i)); ok {
			t.Fatalf("withdrawn VIP's connection %d still installed", i)
		}
	}

	ses := h.cp.BeginExport(now)
	im := NewImporter(recv.cp)
	tr := handoff.NewTransfer(ses, im, handoff.Config{ChunkSize: 32})
	end := pump(t, tr, recv.cp, now)
	recv.cp.Advance(end.Add(simtime.Duration(50 * simtime.Millisecond)))
	recv.checkTracked(150)
	im.Unwind(end)
	recv.checkTracked(0)
	if free, drawn := recv.cp.conns.v4.free, recv.cp.conns.v4.drawn; free == 0 || drawn != 150 {
		t.Fatalf("receiver store after unwind: free head %d, %d drawn; want a free list over 150 records", free, drawn)
	}
	h.checkTracked(150)
}

// tupleOther is tupleN on a second VIP.
func tupleOther(i int) netproto.FiveTuple {
	tup := tupleN(i)
	tup.Dst = tup.Dst.Next()
	return tup
}

// TestExportSnapshotGolden: the handoff snapshot and delta feed of a seeded
// table — two pool versions in use, some connections ended — encode to the
// bytes they did when the snapshot was read from a map-indexed slab of
// shadows instead of from the table and its records.
func TestExportSnapshotGolden(t *testing.T) {
	h := defaultHarness(t)
	now := h.learn(0, 0, 300)
	if err := h.cp.RequestUpdate(now, testVIP(), poolN(8)[:7]); err != nil {
		t.Fatal(err)
	}
	now = h.learn(now, 300, 600)
	for i := 0; i < 600; i += 5 {
		h.cp.EndConnection(now, tupleN(i))
	}
	ses := h.cp.BeginExport(now)
	defer ses.Close()
	now = h.learn(now, 600, 620)
	for i := 1; i < 100; i += 7 {
		h.cp.EndConnection(now, tupleN(i))
	}
	if ses.Pending() != 480 {
		t.Fatalf("snapshot has %d entries, want 480", ses.Pending())
	}
	enc, err := json.Marshal(struct {
		Snapshot, Deltas []handoff.Entry
	}{ses.NextChunk(0), ses.Deltas()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	const want = "5d7b0f1047b5406c884be47eb48d1a16fa9579cfa67c68bc7453c73d6529aadc" // captured at the commit before the store
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot encoding changed: sha256 %s, want %s (%d bytes)", got, want, len(enc))
	}
}

var (
	vip6      = dataplane.VIP{Addr: netip.MustParseAddr("2001:db8::80"), Port: 80, Proto: netproto.ProtoTCP}
	vip6Other = dataplane.VIP{Addr: netip.MustParseAddr("2001:db8::81"), Port: 80, Proto: netproto.ProtoTCP}
)

// tuple6 is connection i of an IPv6 VIP.
func tuple6(vip dataplane.VIP, i int) netproto.FiveTuple {
	src := netip.MustParseAddr("2001:db8:c::").As16()
	src[14], src[15] = byte(i>>8), byte(i)
	return netproto.FiveTuple{Src: netip.AddrFrom16(src), Dst: vip.Addr, SrcPort: uint16(1024 + i), DstPort: vip.Port, Proto: vip.Proto}
}

// TestRecordDropsZone: an address zone is no part of a connection's key
// (KeyBytes and LaneHash leave it out) and the record does not keep one. A
// zoned link-local tuple installs under the zone-less tuple's key hash and
// comes back with a zone-less source wherever the CPU reads the record:
// BeginExport's snapshot, EndConnection's release and RemoveVIP's walk. The
// destination is the VIP's, exactly as registered — zone included, for a
// link-local VIP — so the release finds the VIP its connection counted
// against. An IPv4-mapped IPv6 tuple is an IPv6 connection: a 16-byte
// record, returned as it came.
func TestRecordDropsZone(t *testing.T) {
	h := defaultHarness(t)
	vipZoned := dataplane.VIP{Addr: netip.MustParseAddr("fe80::80%eth0"), Port: 80, Proto: netproto.ProtoTCP}
	for vip, p := range map[dataplane.VIP][]dataplane.DIP{
		vip6: pool("[fd00::1]:20", "[fd00::2]:20"), vipZoned: pool("[fd00::3]:20"),
	} {
		if err := h.cp.AddVIP(0, vip, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	bare := tuple6(vip6, 1)
	bare.Src = netip.MustParseAddr("fe80::1")
	zoned := bare
	zoned.Src = bare.Src.WithZone("eth0")
	mapped := tuple6(vip6, 2)
	mapped.Src = netip.MustParseAddr("::ffff:1.2.3.4")
	toZoned := tuple6(vipZoned, 3)
	if h.sw.KeyHash(zoned) != h.sw.KeyHash(bare) || zoned == bare {
		t.Fatalf("key hash of %v and %v differ, or the zone was lost before the test began", zoned, bare)
	}

	install := func(now simtime.Time, tuples ...netproto.FiveTuple) simtime.Time {
		for _, tup := range tuples {
			h.send(now, tup, netproto.FlagSYN)
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
		h.cp.Advance(now)
		h.checkTracked(len(tuples))
		return now
	}
	now := install(0, zoned, mapped, toZoned)
	for _, tup := range []netproto.FiveTuple{zoned, mapped, toZoned} {
		if e, ok := h.cp.tracked(h.sw.KeyHash(tup), h.sw.ConnDigest(tup)); !ok || e.Record&recordV6 == 0 {
			t.Fatalf("%v: tracked %v with record %#x, want an IPv6 record", tup, ok, e.Record)
		}
	}

	ses := h.cp.BeginExport(now)
	defer ses.Close()
	want := map[netproto.FiveTuple]bool{bare: true, mapped: true, toZoned: true}
	for _, e := range ses.NextChunk(0) {
		if !want[e.Tuple] || e.KeyHash != h.sw.KeyHash(e.Tuple) || e.VIP != dataplane.VIPOf(e.Tuple) {
			t.Fatalf("snapshot holds %v (zones %q, %q) of %v, want the zone-less %v, %v or %v",
				e.Tuple, e.Tuple.Src.Zone(), e.Tuple.Dst.Zone(), e.VIP, bare, mapped, toZoned)
		}
		delete(want, e.Tuple)
	}
	if len(want) != 0 {
		t.Fatalf("snapshot is missing %v", want)
	}

	// release, reached by the zoned tuple: the delete names the record's.
	h.cp.EndConnection(now, zoned)
	h.cp.EndConnection(now, mapped)
	h.cp.EndConnection(now, toZoned)
	h.checkTracked(0)
	if n := h.cp.vips[vipZoned].version(0).conns; n != 0 {
		t.Fatalf("the link-local VIP still counts %d connections on its pool after they ended", n)
	}
	now = install(now, zoned)
	if err := h.cp.RemoveVIP(now, vip6); err != nil {
		t.Fatal(err)
	}
	h.checkTracked(0)
	var got []netproto.FiveTuple
	for _, d := range ses.Deltas() {
		if d.Op == handoff.OpDelete {
			got = append(got, d.Tuple)
		}
	}
	if !reflect.DeepEqual(got, []netproto.FiveTuple{bare, mapped, toZoned, bare}) {
		t.Fatalf("deletes fed to the export session name %v, want %v, %v, %v and %v again", got, bare, mapped, toZoned, bare)
	}
}

// TestMixedFamilyLifecycle takes IPv4 and IPv6 connections, interleaved over
// two VIPs of each family, through everything the control plane does with a
// record: learn and install, touch, EndConnection, aging, RemoveVIP, VIP
// slots reused by other VIPs, and a handoff to a second control plane. The
// store and the table agree on the connection count at every step, and
// every tuple exported — by the donor and again by the receiver — is the
// tuple that was learned.
func TestMixedFamilyLifecycle(t *testing.T) {
	const perVIP = 700 // 1400 a family: both stores leave their first chunk
	ccfg := DefaultConfig()
	ccfg.AgingTimeout = simtime.Duration(10 * simtime.Second)
	h, recv := handoffPair(t, ccfg)
	v4Other := dataplane.VIP{Addr: tupleOther(0).Dst, Port: 80, Proto: netproto.ProtoTCP}
	for _, x := range []*harness{h, recv} {
		for vip, p := range map[dataplane.VIP][]dataplane.DIP{
			v4Other: poolN(4), vip6: pool("[fd00::1]:20", "[fd00::2]:20"), vip6Other: pool("[fd00::3]:20"),
		} {
			if err := x.cp.AddVIP(0, vip, p, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Connection c is on VIP c%4: testVIP, vip6, v4Other, vip6Other.
	tupleOf := func(c int) netproto.FiveTuple {
		switch i := c / 4; c % 4 {
		case 0:
			return tupleN(i)
		case 1:
			return tuple6(vip6, i)
		case 2:
			return tupleOther(i)
		default:
			return tuple6(vip6Other, i)
		}
	}
	learned := map[uint64]netproto.FiveTuple{}
	now := simtime.Time(0)
	for c := 0; c < 4*perVIP; c++ {
		tup := tupleOf(c)
		h.send(now, tup, netproto.FlagSYN)
		learned[h.sw.KeyHash(tup)] = tup
		now = now.Add(5000)
	}
	now = now.Add(simtime.Duration(20 * simtime.Millisecond))
	h.cp.Advance(now)
	h.checkTracked(len(learned))
	if v4, v6 := h.cp.conns.v4.drawn, h.cp.conns.v6.drawn; v4 != 2*perVIP || v6 != 2*perVIP {
		t.Fatalf("%d IPv4 and %d IPv6 records drawn, want %d of each", v4, v6, 2*perVIP)
	}

	end := func(c int) {
		tup := tupleOf(c)
		h.cp.EndConnection(now, tup)
		delete(learned, h.sw.KeyHash(tup))
	}
	for c := 0; c < 4*perVIP; c += 5 { // every fifth ends: all four VIPs lose some
		end(c)
	}
	h.checkTracked(len(learned))

	// Traffic at 6 s on three connections in four; at 12 s the rest have
	// been idle past the timeout and only they age out.
	now = simtime.Time(6 * simtime.Second)
	for c := 0; c < 4*perVIP; c++ {
		if kh := h.sw.KeyHash(tupleOf(c)); c%4 == (c/4)%4 {
			delete(learned, kh)
		} else if _, live := learned[kh]; live {
			if res := h.send(now, tupleOf(c), netproto.FlagACK); !res.ConnHit {
				t.Fatalf("connection %d (%v) missed ConnTable", c, tupleOf(c))
			}
		}
	}
	aged := h.cp.TrackedConns() - len(learned)
	now = simtime.Time(12 * simtime.Second)
	h.cp.Advance(now)
	h.checkTracked(len(learned))
	if got := int(h.cp.Metrics().AgedOut); got != aged || aged == 0 {
		t.Fatalf("AgedOut = %d, want the %d connections left idle", got, aged)
	}

	freed := []uint16{h.cp.vips[v4Other].slot, h.cp.vips[vip6Other].slot}
	slices.Sort(freed)
	for _, vip := range []dataplane.VIP{v4Other, vip6Other} {
		if err := h.cp.RemoveVIP(now, vip); err != nil {
			t.Fatal(err)
		}
		if err := recv.cp.RemoveVIP(now, vip); err != nil {
			t.Fatal(err)
		}
	}
	for kh, tup := range learned {
		if vip := dataplane.VIPOf(tup); vip == v4Other || vip == vip6Other {
			delete(learned, kh)
		}
	}
	h.checkTracked(len(learned))

	// VIP churn: two other VIPs take the withdrawn VIPs' slots, lowest first,
	// on the donor (the receiver numbers them the other way round), while
	// the remaining connections live on. The new VIPs' clients reuse the
	// withdrawn connections' source addresses and ports, so a new record is
	// byte for byte a withdrawn one: only the key hash tells them apart.
	v4New := dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.9"), Port: 8080, Proto: netproto.ProtoUDP}
	vip6New := dataplane.VIP{Addr: netip.MustParseAddr("2001:db8::90"), Port: 443, Proto: netproto.ProtoTCP}
	for _, x := range []*harness{h, recv} {
		vips := []dataplane.VIP{v4New, vip6New}
		if x == recv {
			vips[0], vips[1] = vips[1], vips[0]
		}
		for _, vip := range vips {
			if err := x.cp.AddVIP(now, vip, pool("[fd00::5]:20", "10.0.0.9:20"), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := []uint16{h.cp.vips[v4New].slot, h.cp.vips[vip6New].slot}; !slices.Equal(got, freed) {
		t.Fatalf("new VIPs took slots %v, want the withdrawn VIPs' %v", got, freed)
	}
	ended := h.cp.Metrics().ConnsEnded
	for c := 2; c < 4*perVIP; c += 4 { // v4Other's and vip6Other's connections
		h.cp.EndConnection(now, tupleOf(c))
		h.cp.EndConnection(now, tupleOf(c+1))
	}
	if got := h.cp.Metrics().ConnsEnded; got != ended {
		t.Fatalf("ending withdrawn connections ended %d live ones", got-ended)
	}
	h.checkTracked(len(learned))
	const perNew = 300
	for i := 0; i < perNew; i++ {
		v4 := tupleOther(i)
		v4.Dst, v4.DstPort, v4.Proto = v4New.Addr, v4New.Port, v4New.Proto
		for _, tup := range []netproto.FiveTuple{v4, tuple6(vip6New, i)} {
			h.send(now, tup, netproto.FlagSYN)
			learned[h.sw.KeyHash(tup)] = tup
		}
	}
	now = now.Add(simtime.Duration(20 * simtime.Millisecond))
	h.cp.Advance(now)
	h.checkTracked(len(learned))

	// Every record rebuilds, under the VIP its slot names, the tuple its
	// entry's key hash was taken over; and the snapshot is exactly the
	// connections learned and not ended, withdrawn or aged.
	checkExport := func(x *harness) {
		t.Helper()
		x.sw.ConnTable().Walk(func(e cuckoo.Entry) bool {
			vc, tup := x.cp.conn(e.Record)
			if dataplane.VIPOf(tup) != vc.vip || x.cp.vips[vc.vip] != vc || x.sw.KeyHash(tup) != e.KeyHash {
				t.Fatalf("record %#x in slot %d rebuilds %v under VIP %v, key hash %#x, for an entry keyed %#x",
					e.Record, vc.slot, tup, vc.vip, x.sw.KeyHash(tup), e.KeyHash)
			}
			return true
		})
		ses := x.cp.BeginExport(now)
		defer ses.Close()
		if ses.Pending() != len(learned) {
			t.Fatalf("snapshot has %d entries, want %d", ses.Pending(), len(learned))
		}
		for _, e := range ses.NextChunk(0) {
			if want, ok := learned[e.KeyHash]; !ok || e.Tuple != want || e.VIP != dataplane.VIPOf(want) {
				t.Fatalf("exported %v of %v under key hash %#x, learned %v (%v)", e.Tuple, e.VIP, e.KeyHash, want, ok)
			}
		}
	}
	checkExport(h)
	ses := h.cp.BeginExport(now)
	tr := handoff.NewTransfer(ses, NewImporter(recv.cp), handoff.Config{ChunkSize: 32})
	now = pump(t, tr, recv.cp, now)
	now = now.Add(simtime.Duration(50 * simtime.Millisecond))
	recv.cp.Advance(now)
	recv.checkTracked(len(learned))
	checkExport(recv)
	h.checkTracked(len(learned))
	if h.violations != 0 {
		t.Fatalf("violations = %d", h.violations)
	}
}

// slotVIP is the i-th VIP of a slot-space test.
func slotVIP(i int) dataplane.VIP {
	return dataplane.VIP{Addr: netip.AddrFrom4([4]byte{30, 0, byte(i >> 8), byte(i)}), Port: 80, Proto: netproto.ProtoTCP}
}

// TestVIPSlotsExhaust: a record names its VIP in 16 bits, so a control plane
// holds 65 536 VIPs and refuses the next with ErrVIPSlots before the data
// plane hears of it; a withdrawn VIP's slot is handed out again, the lowest
// free slot first. A stand-in holds slots 8 and up, so the test builds eight
// VIPs, not 65 536 (TestAddVIPRollsBackSlotExhaustion, internal/pipes, fills
// a control plane with real ones).
func TestVIPSlotsExhaust(t *testing.T) {
	h := newHarness(t, dataplane.DefaultConfig(1000), DefaultConfig())
	for i := 0; i < 8; i++ {
		if err := h.cp.AddVIP(0, slotVIP(i), poolN(1), 0); err != nil {
			t.Fatal(err)
		}
	}
	standIn := &vipCtl{}
	for len(h.cp.bySlot) < maxVIPs {
		h.cp.bySlot = append(h.cp.bySlot, standIn)
	}
	over := slotVIP(8)
	if err := h.cp.AddVIP(0, over, poolN(1), 0); !errors.Is(err, ErrVIPSlots) || h.sw.HasVIP(over) {
		t.Fatalf("VIP 65 537: AddVIP = %v, installed in the data plane %v; want ErrVIPSlots and not installed",
			err, h.sw.HasVIP(over))
	}
	for _, i := range []int{5, 2} {
		if err := h.cp.RemoveVIP(0, slotVIP(i)); err != nil {
			t.Fatal(err)
		}
	}
	for n, want := range []uint16{2, 5} {
		vip := slotVIP(9 + n)
		if err := h.cp.AddVIP(0, vip, poolN(1), 0); err != nil {
			t.Fatal(err)
		}
		if got := h.cp.vips[vip].slot; got != want || h.cp.bySlot[got] != h.cp.vips[vip] {
			t.Fatalf("re-added VIP took slot %d, want the lowest free slot %d", got, want)
		}
	}
	if err := h.cp.AddVIP(0, over, poolN(1), 0); !errors.Is(err, ErrVIPSlots) {
		t.Fatalf("AddVIP with every slot taken again = %v, want ErrVIPSlots", err)
	}
}
