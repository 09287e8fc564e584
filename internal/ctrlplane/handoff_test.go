package ctrlplane

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// handoffPair builds a donor/receiver pair sharing hash seeds (the
// cluster invariant that makes pool rows portable).
func handoffPair(t *testing.T, ccfg Config) (donor, recv *harness) {
	t.Helper()
	dcfg := dataplane.DefaultConfig(100000)
	donor = newHarness(t, dcfg, ccfg)
	recv = newHarness(t, dcfg, ccfg)
	for _, h := range []*harness{donor, recv} {
		if err := h.cp.AddVIP(0, testVIP(), poolN(8), 0); err != nil {
			t.Fatal(err)
		}
	}
	return donor, recv
}

// pump drives tr to convergence, advancing the receiver's virtual clock
// past its CPU queue whenever the transfer backpressures. Returns the
// finish time.
func pump(t *testing.T, tr *handoff.Transfer, recv *ControlPlane, from simtime.Time) simtime.Time {
	t.Helper()
	now := from
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("transfer did not converge")
		}
		_, done := tr.Step(now, 64)
		if done {
			return now
		}
		now = now.Add(simtime.Duration(simtime.Millisecond))
		recv.Advance(now)
	}
}

func TestExportImportPreservesMapping(t *testing.T) {
	donor, recv := handoffPair(t, DefaultConfig())
	vip := testVIP()

	// 60 conns on v0; update drops a DIP; 60 more on v1. The first wave
	// stays pinned to the old pool — exactly the state that breaks on a
	// cold failover.
	for i := 0; i < 60; i++ {
		donor.send(simtime.Time(i)*1000, tupleN(i), netproto.FlagSYN)
	}
	donor.cp.Advance(ms(50))
	if err := donor.cp.RequestUpdate(ms(50), vip, poolN(8)[:7]); err != nil {
		t.Fatal(err)
	}
	donor.cp.Advance(ms(100))
	for i := 60; i < 120; i++ {
		donor.send(ms(100).Add(simtime.Duration(i)*1000), tupleN(i), netproto.FlagSYN)
	}
	donor.cp.Advance(ms(200))
	if donor.cp.TrackedConns() != 120 {
		t.Fatalf("donor tracks %d conns", donor.cp.TrackedConns())
	}
	// Receiver converges on the donor's *current* pool only.
	if err := recv.cp.RequestUpdate(ms(200), vip, poolN(7)); err != nil {
		t.Fatal(err)
	}
	recv.cp.Advance(ms(300))

	ses := donor.cp.BeginExport(ms(300))
	if ses.Pending() != 120 {
		t.Fatalf("snapshot has %d entries", ses.Pending())
	}
	im := NewImporter(recv.cp)
	tr := handoff.NewTransfer(ses, im, handoff.Config{ChunkSize: 32})
	end := pump(t, tr, recv.cp, ms(300))
	tr.Finish(end)
	recv.cp.Advance(end.Add(simtime.Duration(simtime.Second)))

	if got := recv.cp.TrackedConns(); got != 120 {
		t.Fatalf("receiver tracks %d conns, want 120", got)
	}
	// Every connection must select the same DIP on the receiver as on the
	// donor — including the wave pinned to the retired pool.
	for i := 0; i < 120; i++ {
		tup := tupleN(i)
		dv, ok := donor.sw.LookupConn(tup)
		if !ok {
			t.Fatalf("conn %d missing on donor", i)
		}
		rv, ok := recv.sw.LookupConn(tup)
		if !ok {
			t.Fatalf("conn %d missing on receiver", i)
		}
		dd, err := donor.sw.SelectDIP(vip, dv, tup)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := recv.sw.SelectDIP(vip, rv, tup)
		if err != nil {
			t.Fatal(err)
		}
		if dd != rd {
			t.Fatalf("conn %d: donor DIP %v, receiver DIP %v", i, dd, rd)
		}
	}
	st := tr.Stats()
	if st.Exported != 120 || st.Imported != 120 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Chunks != 4 {
		t.Fatalf("chunks = %d, want 4 (120/32)", st.Chunks)
	}
}

func TestExportDeltaStream(t *testing.T) {
	donor, recv := handoffPair(t, DefaultConfig())

	for i := 0; i < 40; i++ {
		donor.send(simtime.Time(i)*1000, tupleN(i), netproto.FlagSYN)
	}
	donor.cp.Advance(ms(50))

	ses := donor.cp.BeginExport(ms(50))
	im := NewImporter(recv.cp)
	tr := handoff.NewTransfer(ses, im, handoff.Config{ChunkSize: 16})

	// While the snapshot is in flight: 10 new conns learned, 5 of the
	// snapshotted ones end. The donor's packet path never pauses.
	tr.Step(ms(51), 16)
	for i := 40; i < 50; i++ {
		donor.send(ms(51).Add(simtime.Duration(i)*1000), tupleN(i), netproto.FlagSYN)
	}
	donor.cp.Advance(ms(100))
	for i := 0; i < 5; i++ {
		donor.cp.EndConnection(ms(100), tupleN(i))
	}

	end := pump(t, tr, recv.cp, ms(100))
	tr.Finish(end)
	recv.cp.Advance(end.Add(simtime.Duration(simtime.Second)))

	// Receiver must converge to the donor's exact table: 40 - 5 + 10.
	if got, want := recv.cp.TrackedConns(), donor.cp.TrackedConns(); got != want {
		t.Fatalf("receiver tracks %d conns, donor %d", got, want)
	}
	for i := 0; i < 50; i++ {
		tup := tupleN(i)
		_, donorHas := donor.sw.LookupConn(tup)
		_, recvHas := recv.sw.LookupConn(tup)
		if donorHas != recvHas {
			t.Fatalf("conn %d: donor=%v receiver=%v", i, donorHas, recvHas)
		}
	}
	if tr.Stats().Deltas == 0 {
		t.Fatal("no deltas replayed")
	}
}

func TestImportBackpressure(t *testing.T) {
	// Only the receiver's queue is bounded; the donor learns freely.
	donor, _ := handoffPair(t, DefaultConfig())
	rcfg := DefaultConfig()
	rcfg.MaxInsertQueue = 8
	recv := newHarness(t, dataplane.DefaultConfig(100000), rcfg)
	if err := recv.cp.AddVIP(0, testVIP(), poolN(8), 0); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		donor.send(simtime.Time(i)*1000, tupleN(i), netproto.FlagSYN)
	}
	donor.cp.Advance(ms(50))

	ses := donor.cp.BeginExport(ms(50))
	im := NewImporter(recv.cp)
	tr := handoff.NewTransfer(ses, im, handoff.Config{ChunkSize: 32})

	// With an 8-deep queue the first unbounded step must stall early.
	moved, done := tr.Step(ms(50), 0)
	if done || moved >= 100 {
		t.Fatalf("no backpressure: moved=%d done=%v", moved, done)
	}
	if tr.Stats().Backoffs == 0 {
		t.Fatal("backoff not recorded")
	}
	end := pump(t, tr, recv.cp, ms(50))
	tr.Finish(end)
	recv.cp.Advance(end.Add(simtime.Duration(simtime.Second)))
	if got := recv.cp.TrackedConns(); got != 100 {
		t.Fatalf("receiver tracks %d conns, want 100", got)
	}
	// The queue bound was respected throughout.
	if peak := recv.cp.Metrics().MaxInsertQueue; peak > 8 {
		t.Fatalf("receiver queue peaked at %d, bound 8", peak)
	}
}

func TestExportCancelUnwinds(t *testing.T) {
	donor, recv := handoffPair(t, DefaultConfig())
	for i := 0; i < 30; i++ {
		donor.send(simtime.Time(i)*1000, tupleN(i), netproto.FlagSYN)
	}
	donor.cp.Advance(ms(50))

	ses := donor.cp.BeginExport(ms(50))
	im := NewImporter(recv.cp)
	tr := handoff.NewTransfer(ses, im, handoff.Config{ChunkSize: 8})
	tr.Step(ms(50), 16)
	recv.cp.Advance(ms(60))
	tr.Cancel(ms(60))
	im.Unwind(ms(60))
	recv.cp.Advance(ms(70))

	if got := recv.cp.TrackedConns(); got != 0 {
		t.Fatalf("receiver still tracks %d conns after unwind", got)
	}
	// Donor unaffected; a second export starts clean.
	if got := donor.cp.TrackedConns(); got != 30 {
		t.Fatalf("donor tracks %d conns", got)
	}
	ses2 := donor.cp.BeginExport(ms(70))
	if ses2.Pending() != 30 {
		t.Fatalf("second snapshot has %d entries", ses2.Pending())
	}
	ses2.Close()
}
