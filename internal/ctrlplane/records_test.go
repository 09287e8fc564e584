package ctrlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// storeTuple draws a random tuple of the given family; one IPv6 tuple in
// four is IPv4-mapped, which must stay a 16-byte record.
func storeTuple(rng *rand.Rand, v4 bool) netproto.FiveTuple {
	var a, b [16]byte
	rng.Read(a[:])
	rng.Read(b[:])
	t := netproto.FiveTuple{SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: netproto.ProtoTCP}
	switch {
	case v4:
		t.Src, t.Dst = netip.AddrFrom4([4]byte(a[:4])), netip.AddrFrom4([4]byte(b[:4]))
	case rng.Intn(4) == 0:
		t.Src = netip.AddrFrom16(netip.AddrFrom4([4]byte(a[:4])).As16())
		t.Dst = netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
	default:
		t.Src, t.Dst = netip.AddrFrom16(a), netip.AddrFrom16(b)
	}
	return t
}

// TestRecordStoreDifferential drives the store with a seeded script of
// allocs, lastSeen writes and releases in both families against a map
// oracle, once as a store that ages and once as one that does not: every
// record reads back the tuple (and, aging, the time) last written, index 0
// is never handed out, a vacated record holds nothing but its free-list
// link and is the next one its family hands out, and live is exact. The
// population passes 1024 a family, so records cross chunk boundaries. A
// store that does not age never allocates a last-seen chunk.
func TestRecordStoreDifferential(t *testing.T) {
	for _, aging := range []bool{false, true} {
		recordStoreScript(t, aging)
	}
}

func recordStoreScript(t *testing.T, aging bool) {
	type want struct {
		tuple    netproto.FiveTuple
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
		if got := st.tuple(i); got != w.tuple {
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
			tuple := storeTuple(rng, v4)
			i := st.alloc(tuple, now)
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
			oracle[i] = want{tuple, now}
			live = append(live, i)
			// A reused record round-trips its tuple: the link it held while
			// vacated is not among its key bytes.
			check(op, i)
		case r < 7:
			i := live[rng.Intn(len(live))]
			if aging {
				*st.lastSeen(i) = now
				oracle[i] = want{oracle[i].tuple, now}
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
				want := [13]byte{byte(link), byte(link >> 8), byte(link >> 16), byte(link >> 24)}
				if got := *st.v4.at(i); got != want {
					t.Fatalf("op %d: vacated IPv4 record %d holds %x, want only link %d", op, i, got, link)
				}
			} else {
				want := [37]byte{byte(link), byte(link >> 8), byte(link >> 16), byte(link >> 24)}
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
// all-zero — neither the ended connection's key nor the free-list link it
// held in between — in both families and across chunk boundaries, and comes
// back most-recently-vacated first.
func TestSlabReuseZeroed(t *testing.T) {
	slabReuse[[13]byte](t)
	slabReuse[[37]byte](t)
}

func slabReuse[K wireKey](t *testing.T) {
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
// scan, and none outgrows its chunk arithmetic (13 KB, 37 KB and 8 KB per
// 1024). A field that adds a pointer, or a byte, makes a million-record store
// scannable or a size class bigger.
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
		{"v4.chunks", reflect.TypeOf(st.v4.chunks).Elem(), 13 << 10},
		{"v6.chunks", reflect.TypeOf(st.v6.chunks).Elem(), 37 << 10},
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
	if err := h.cp.RemoveDIP(now, testVIP(), poolN(8)[7]); err != nil {
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
// comes back zone-less wherever the CPU reads the record: BeginExport's
// snapshot, EndConnection's release and RemoveVIP's walk. An IPv4-mapped
// IPv6 tuple is an IPv6 connection: a 16-byte record, returned as it came.
func TestRecordDropsZone(t *testing.T) {
	h := defaultHarness(t)
	if err := h.cp.AddVIP(0, vip6, pool("[fd00::1]:20", "[fd00::2]:20"), 0); err != nil {
		t.Fatal(err)
	}
	bare := tuple6(vip6, 1)
	bare.Src = netip.MustParseAddr("fe80::1")
	zoned := bare
	zoned.Src = bare.Src.WithZone("eth0")
	mapped := tuple6(vip6, 2)
	mapped.Src = netip.MustParseAddr("::ffff:1.2.3.4")
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
	now := install(0, zoned, mapped)
	for _, tup := range []netproto.FiveTuple{zoned, mapped} {
		if e, ok := h.cp.tracked(h.sw.KeyHash(tup)); !ok || e.Record&recordV6 == 0 {
			t.Fatalf("%v: tracked %v with record %#x, want an IPv6 record", tup, ok, e.Record)
		}
	}

	ses := h.cp.BeginExport(now)
	defer ses.Close()
	want := map[netproto.FiveTuple]bool{bare: true, mapped: true}
	for _, e := range ses.NextChunk(0) {
		if !want[e.Tuple] || e.KeyHash != h.sw.KeyHash(e.Tuple) {
			t.Fatalf("snapshot holds %v (zone %q), want the zone-less %v or %v", e.Tuple, e.Tuple.Src.Zone(), bare, mapped)
		}
		delete(want, e.Tuple)
	}
	if len(want) != 0 {
		t.Fatalf("snapshot is missing %v", want)
	}

	// release, reached by the zoned tuple: the delete names the record's.
	h.cp.EndConnection(now, zoned)
	h.cp.EndConnection(now, mapped)
	h.checkTracked(0)
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
	if !reflect.DeepEqual(got, []netproto.FiveTuple{bare, mapped, bare}) {
		t.Fatalf("deletes fed to the export session name %v, want %v, %v and %v again", got, bare, mapped, bare)
	}
}

// TestMixedFamilyLifecycle takes IPv4 and IPv6 connections, interleaved over
// two VIPs of each family, through everything the control plane does with a
// record: learn and install, touch, EndConnection, aging, RemoveVIP, and a
// handoff to a second control plane. The store and the table agree on the
// connection count at every step, and every tuple exported — by the donor
// and again by the receiver — is the tuple that was learned.
func TestMixedFamilyLifecycle(t *testing.T) {
	const perVIP = 700 // 1400 a family: both stores leave their first chunk
	ccfg := DefaultConfig()
	ccfg.AgingTimeout = simtime.Duration(10 * simtime.Second)
	ccfg.AgingSweepEvery = simtime.Duration(simtime.Second)
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

	checkExport := func(x *harness) {
		t.Helper()
		ses := x.cp.BeginExport(now)
		defer ses.Close()
		if ses.Pending() != len(learned) {
			t.Fatalf("snapshot has %d entries, want %d", ses.Pending(), len(learned))
		}
		for _, e := range ses.NextChunk(0) {
			if want, ok := learned[e.KeyHash]; !ok || e.Tuple != want {
				t.Fatalf("exported %v under key hash %#x, learned %v (%v)", e.Tuple, e.KeyHash, want, ok)
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
