package ctrlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// TestRecordStoreReusesSlots: a released record is zeroed and taken by the
// next alloc, so churn at a steady connection count neither grows the store
// nor keeps ended connections' tuples reachable; growth is one chunk at a
// time and index 0 is never handed out.
func TestRecordStoreReusesSlots(t *testing.T) {
	var st recordStore
	var ids [3]uint32
	for k := range ids {
		ids[k] = st.alloc()
		*st.at(ids[k]) = connRecord{tuple: tupleN(k + 1), lastSeen: simtime.Time(k + 1)}
	}
	if ids != [3]uint32{1, 2, 3} || st.live != 3 || len(st.chunks) != 1 {
		t.Fatalf("first allocs = %v, live %d, %d chunks; want 1 2 3, 3 and 1", ids, st.live, len(st.chunks))
	}
	st.release(2)
	if *st.at(2) != (connRecord{}) || st.live != 2 {
		t.Fatalf("vacated record still holds %+v (live %d)", *st.at(2), st.live)
	}
	st.release(1)
	// Most recently vacated first, each handed out zeroed.
	for _, want := range []uint32{1, 2} {
		got := st.alloc()
		if got != want || *st.at(got) != (connRecord{}) {
			t.Fatalf("alloc after release = %d holding %+v, want a zeroed %d", got, *st.at(got), want)
		}
	}
	if got := st.at(3); got.tuple != tupleN(3) || got.lastSeen != 3 {
		t.Fatalf("record 3 disturbed: %+v", got)
	}
	if got := st.alloc(); got != 4 || st.live != 4 {
		t.Fatalf("alloc with nothing vacated = %d (live %d), want 4", got, st.live)
	}
	// Filling the first chunk exactly does not allocate the second.
	for st.drawn < recordChunkLen-1 {
		st.alloc()
	}
	if len(st.chunks) != 1 {
		t.Fatalf("%d chunks for %d records", len(st.chunks), st.live)
	}
	if got := st.alloc(); got != recordChunkLen || len(st.chunks) != 2 {
		t.Fatalf("alloc %d with %d chunks; want %d opening the second", got, len(st.chunks), recordChunkLen)
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
	drawn := h.cp.conns.drawn
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
	if h.cp.conns.drawn != drawn {
		t.Fatalf("churn at 300 connections drew fresh records: %d -> %d", drawn, h.cp.conns.drawn)
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
	if free, drawn := recv.cp.conns.free, recv.cp.conns.drawn; free == 0 || drawn != 150 {
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
