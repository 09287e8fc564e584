package pipes

// Tests for the explicit shard-seed handling, the fanout rollback, and
// multi-pipe batches beside concurrent callers and between batches.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

func newTestEngine(t *testing.T, pipes, conns int) *Engine {
	t.Helper()
	e, err := New(testConfig(pipes, conns))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddVIP(0, testVIP(), testPool(8), 0); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestZeroShardSeedExplicit pins the shard-seed derivation: the shard seed
// derives from the chip seed, and the one configuration where that XOR
// lands on zero (Dataplane.Seed == shardSeedSalt) falls back to the salt
// explicitly instead of silently hashing unseeded. Sharding must stay
// deterministic across engines in every case.
func TestZeroShardSeedExplicit(t *testing.T) {
	cfg := testConfig(4, 1000)
	cfg.Dataplane.Seed = shardSeedSalt // XOR with the salt collapses to 0
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.seed == 0 {
		t.Fatal("derived shard seed collapsed to zero")
	}
	if a.seed != shardSeedSalt {
		t.Fatalf("zero-XOR fallback seed = %#x, want the salt %#x", a.seed, uint64(shardSeedSalt))
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if pa, pb := a.PipeOf(tupleN(i)), b.PipeOf(tupleN(i)); pa != pb {
			t.Fatalf("conn %d: sharding not deterministic (%d vs %d)", i, pa, pb)
		}
	}
	cfg.Dataplane.Seed = 7
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.seed != 7^shardSeedSalt {
		t.Fatalf("derived shard seed = %#x, want the chip seed ^ salt %#x", c.seed, uint64(7^shardSeedSalt))
	}
}

// TestFanoutRollsBackOnPipeFailure forces pipe 2 to fail mid-fanout and
// asserts the pipes that had already applied the operation are rolled
// back, so the chip's healthy pipes keep identical pools (the old fanout
// returned the first error and left them diverged).
func TestFanoutRollsBackOnPipeFailure(t *testing.T) {
	e := newTestEngine(t, 4, 10000)
	victim := testPool(8)[3]
	// Diverge pipe 2 behind the engine's back: it no longer has the VIP,
	// so the engine-level update removing the victim fails there after
	// succeeding on pipes 0 and 1.
	if err := e.Controlplane(2).RemoveVIP(0, testVIP()); err != nil {
		t.Fatal(err)
	}
	now := simtime.Time(simtime.Second)
	e.Advance(now)
	without := slices.Delete(testPool(8), 3, 4)
	if err := e.RequestUpdate(now, testVIP(), without); err == nil {
		t.Fatal("RequestUpdate should fail: pipe 2 does not have the VIP")
	}
	// Let the rollback updates settle.
	now = now.Add(simtime.Duration(10 * simtime.Second))
	e.Advance(now)
	for _, pi := range []int{0, 1, 3} {
		pool, err := e.Controlplane(pi).TargetPool(testVIP())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range pool {
			if d == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("pipe %d lost %v despite rollback: %v", pi, victim, pool)
		}
		if len(pool) != 8 {
			t.Fatalf("pipe %d pool size %d after rollback, want 8", pi, len(pool))
		}
	}
}

// TestInterleavedBatchesRace interleaves ProcessFramesInto calls from two
// goroutines with config fanout and stats reads, all under the race
// detector: the batch lock must serialize batches without corrupting shard
// state, and the pipe locks must order each pipe's work.
func TestInterleavedBatchesRace(t *testing.T) {
	e := newTestEngine(t, 4, 20000)
	const rounds = 30
	now := simtime.Time(simtime.Second)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var pkts []*netproto.Packet
				for i := 0; i < 150; i++ {
					flags := netproto.FlagSYN
					if r > 0 {
						flags = netproto.FlagACK
					}
					pkts = append(pkts, &netproto.Packet{Tuple: tupleN(g*1000 + i), TCPFlags: flags})
				}
				res := processBatch(e, now, pkts)
				for i := range res {
					if res[i].Verdict != dataplane.VerdictForward &&
						res[i].Verdict != dataplane.VerdictNoBackend {
						t.Errorf("goroutine %d round %d pkt %d: %v", g, r, i, res[i].Verdict)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if err := e.RequestUpdate(now, testVIP(), testPool(9)); err != nil {
				t.Errorf("adding a DIP: %v", err)
			}
			_ = e.Stats()
			if err := e.RequestUpdate(now, testVIP(), testPool(8)); err != nil {
				t.Errorf("removing it: %v", err)
			}
			// Exercised for race coverage; emptiness is legitimate once
			// the concurrent batches' Advance calls drain the updates.
			_, _ = e.NextEventTime()
		}
	}()
	wg.Wait()
}

// TestNextEventTimeAfterLearnedBatch asserts the engine's deadline stays
// live between batches: a learned batch schedules its filter flush, and
// NextEventTime must surface it without any packet or Advance activity to
// "kick" the pipes.
func TestNextEventTimeAfterLearnedBatch(t *testing.T) {
	e := newTestEngine(t, 4, 10000)
	var pkts []*netproto.Packet
	for i := 0; i < 64; i++ {
		pkts = append(pkts, &netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagSYN})
	}
	now := simtime.Time(0)
	res := processBatch(e, now, pkts)
	learned := false
	for i := range res {
		learned = learned || res[i].Learned
	}
	if !learned {
		t.Fatal("SYN batch learned nothing")
	}
	// The learn flush and the pending inserts are due within a few filter
	// timeouts; NextEventTime must surface that deadline.
	at, ok := e.NextEventTime()
	if !ok {
		t.Fatal("NextEventTime empty after a learned batch")
	}
	if limit := now.Add(simtime.Duration(10 * simtime.Millisecond)); at.After(limit) {
		t.Fatalf("NextEventTime = %v, want a deadline by %v", at, limit)
	}
	// And it must still drain normally from here.
	e.Advance(now.Add(simtime.Duration(10 * simtime.Second)))
	if got := e.Stats().Connections; got != 64 {
		t.Fatalf("connections after drain = %d, want 64", got)
	}
}
