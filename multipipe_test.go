package silkroad

// Facade-level tests for the multi-pipe data plane: Config.Pipes > 1
// shards traffic across independent pipes behind the same Switch API.

import (
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
)

func newMultiSwitch(t *testing.T, pipes int) *Switch {
	t.Helper()
	cfg := Defaults(100000)
	cfg.Pipes = pipes
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestOnePipeSwitchIsBareDataplane pins what every single-pipe golden and
// soak report rests on: with Pipes 0 or 1 the switch runs a one-pipe
// engine whose pipe is Config.Dataplane as written — the caller's seed,
// undiversified — so keys, digests and DIP choices are those of
// dataplane.New on the same config.
func TestOnePipeSwitchIsBareDataplane(t *testing.T) {
	var tuples []FiveTuple
	for i := 0; i < 300; i++ {
		tuples = append(tuples, clientPkt(i, 0).Tuple)
		t6 := clientPkt(i, 0).Tuple
		t6.Src = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(i >> 8), 15: byte(i)})
		t6.Dst = netip.MustParseAddr("2001:db8::20")
		tuples = append(tuples, t6)
	}
	vips := []VIP{testVIP(), NewVIP("2001:db8::20", 80, TCP)}
	pools := [][]DIP{Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20"), Pool("[2001:db8::a]:20", "[2001:db8::b]:20", "[2001:db8::c]:20")}
	for _, pipes := range []int{0, 1} {
		cfg := Defaults(100000)
		cfg.Pipes = pipes
		cfg.Dataplane.Seed = 0xfeed_5eed
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := dataplane.New(cfg.Dataplane)
		if err != nil {
			t.Fatal(err)
		}
		for i, vip := range vips {
			if err := sw.AddVIP(0, vip, pools[i]); err != nil {
				t.Fatal(err)
			}
			if err := bare.InstallVIP(vip, 0, pools[i], 0); err != nil {
				t.Fatal(err)
			}
		}
		if sw.Engine() == nil || sw.Pipes() != 1 || sw.Engine().NumPipes() != 1 {
			t.Fatalf("Pipes %d: Engine() = %v, Pipes() = %d", pipes, sw.Engine(), sw.Pipes())
		}
		dp := sw.Dataplane()
		if got := dp.Config(); got.Seed != cfg.Dataplane.Seed {
			t.Fatalf("Pipes %d: pipe 0 runs seed %#x; want the caller's %#x", pipes, got.Seed, cfg.Dataplane.Seed)
		}
		for _, tup := range tuples {
			if dp.KeyHash(tup) != bare.KeyHash(tup) || dp.ConnDigest(tup) != bare.ConnDigest(tup) {
				t.Fatalf("Pipes %d: %v hashes to %#x/%#x, bare data plane to %#x/%#x", pipes, tup,
					dp.KeyHash(tup), dp.ConnDigest(tup), bare.KeyHash(tup), bare.ConnDigest(tup))
			}
			got, err1 := dp.SelectDIP(dataplane.VIPOf(tup), 0, tup)
			want, err2 := bare.SelectDIP(dataplane.VIPOf(tup), 0, tup)
			if err1 != nil || err2 != nil || got != want {
				t.Fatalf("Pipes %d: %v selects %v (%v), bare data plane %v (%v)", pipes, tup, got, err1, want, err2)
			}
		}
	}
}

// TestMultiPipeEndToEnd drives the full facade surface against a 4-pipe
// switch: process, batch, pool updates under PCC, termination, stats.
func TestMultiPipeEndToEnd(t *testing.T) {
	sw := newMultiSwitch(t, 4)
	if sw.Pipes() != 4 || sw.Engine().NumPipes() != 4 {
		t.Fatalf("Pipes() = %d, Engine().NumPipes() = %d", sw.Pipes(), sw.Engine().NumPipes())
	}

	const conns = 500
	var pkts []*Packet
	for i := 0; i < conns; i++ {
		pkts = append(pkts, clientPkt(i, netproto.FlagSYN))
	}
	first := make([]DIP, conns)
	for i, res := range processBatch(sw, 0, pkts) {
		if res.Verdict != dataplane.VerdictForward || !res.DIP.IsValid() {
			t.Fatalf("conn %d: %+v", i, res)
		}
		first[i] = res.DIP
	}

	now := Time(Second)
	sw.AdvanceTo(now)
	removed := Pool("10.0.0.1:20")[0]
	if err := sw.RemoveDIP(now, testVIP(), removed); err != nil {
		t.Fatal(err)
	}
	now = now.Add(Duration(Second))
	sw.AdvanceTo(now)

	for i := 0; i < conns; i++ {
		if first[i] == removed {
			continue
		}
		res := process(sw, now, clientPkt(i, netproto.FlagACK))
		if res.Verdict != dataplane.VerdictForward || res.DIP != first[i] {
			t.Fatalf("conn %d: PCC violated across pool update: first %v, now %+v", i, first[i], res)
		}
	}

	st := sw.Stats()
	if st.Dataplane.Packets == 0 || st.Connections == 0 {
		t.Fatalf("aggregate stats empty: %+v", st)
	}
	if len(sw.Engine().Stats().PipePackets) != 4 {
		t.Fatal("per-pipe packet counters missing")
	}

	tup := clientPkt(3, 0).Tuple
	sw.EndConnection(now, tup)
	now = now.Add(Duration(Second))
	sw.AdvanceTo(now)
	res := process(sw, now, clientPkt(3, netproto.FlagSYN))
	if res.Verdict != dataplane.VerdictForward {
		t.Fatalf("reconnect after EndConnection: %+v", res)
	}
}

// TestMultiPipeMatchesSinglePipe asserts sharding is invisible to
// clients: identical workloads on 1-pipe and 4-pipe switches yield the
// same verdict for every packet and the same total packet count.
func TestMultiPipeMatchesSinglePipe(t *testing.T) {
	one := newMultiSwitch(t, 1)
	four := newMultiSwitch(t, 4)
	var pkts []*Packet
	for i := 0; i < 300; i++ {
		pkts = append(pkts, clientPkt(i%150, netproto.FlagSYN))
	}
	r1 := processBatch(one, 0, pkts)
	r4 := processBatch(four, 0, pkts)
	for i := range pkts {
		if r1[i].Verdict != r4[i].Verdict {
			t.Fatalf("packet %d: single-pipe %v, multi-pipe %v", i, r1[i].Verdict, r4[i].Verdict)
		}
	}
	if p1, p4 := one.Stats().Dataplane.Packets, four.Stats().Dataplane.Packets; p1 != p4 {
		t.Fatalf("packet accounting differs: %d vs %d", p1, p4)
	}
}

// TestSinglePipeBatchMatchesProcess asserts the batched entry point on a
// single-pipe switch is just a loop over ProcessFrame.
func TestSinglePipeBatchMatchesProcess(t *testing.T) {
	batch := newSwitch(t)
	loop := newSwitch(t)
	var pkts []*Packet
	for i := 0; i < 100; i++ {
		pkts = append(pkts, clientPkt(i%40, netproto.FlagSYN))
	}
	got := processBatch(batch, 0, pkts)
	for i, pkt := range pkts {
		want := process(loop, 0, pkt)
		if got[i] != want {
			t.Fatalf("packet %d: batch %+v, loop %+v", i, got[i], want)
		}
	}
}

// TestEmptyPoolNoBackendFacade is the acceptance check for the
// empty-pool fix at the facade: when a VIP's hardware pool row is empty —
// a state the control-plane API refuses to create but the hardware can
// reach (mid-update windows, direct table writes) — every packet drops
// with VerdictNoBackend on both single- and multi-pipe switches, and
// Forward surfaces it as an error rather than DIP{}.
func TestEmptyPoolNoBackendFacade(t *testing.T) {
	for _, pipes := range []int{1, 4} {
		cfg := Defaults(10000)
		cfg.Pipes = pipes
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20")); err != nil {
			t.Fatal(err)
		}
		// Empty the pool row in hardware on every pipe.
		if pipes == 1 {
			if err := sw.Dataplane().WritePool(testVIP(), 0, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < pipes; i++ {
				if err := sw.Engine().Dataplane(i).WritePool(testVIP(), 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 50; i++ {
			res := process(sw, 0, clientPkt(i, netproto.FlagSYN))
			if res.Verdict != dataplane.VerdictNoBackend {
				t.Fatalf("pipes=%d packet %d: verdict = %v, want %v",
					pipes, i, res.Verdict, dataplane.VerdictNoBackend)
			}
			if res.DIP.IsValid() {
				t.Fatalf("pipes=%d: forwarded to %v from empty pool", pipes, res.DIP)
			}
		}
		if nb := sw.Stats().Dataplane.NoBackend; nb != 50 {
			t.Fatalf("pipes=%d: NoBackend = %d, want 50", pipes, nb)
		}
		raw, err := clientPkt(99, netproto.FlagSYN).Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Forward(0, raw); err == nil {
			t.Fatalf("pipes=%d: Forward on empty pool should error", pipes)
		}
	}
}

// TestConcurrentProcessFrameRace sends single frames from several
// goroutines into a 4-pipe switch beside pool updates and AdvanceTo calls,
// under the race detector. Each frame is a one-frame batch, which skips the
// engine's batch lock and takes only its pipe's lock, the lock the updates
// fan out under. The pool never empties, so every frame is forwarded, and each is
// counted once.
func TestConcurrentProcessFrameRace(t *testing.T) {
	sw := newMultiSwitch(t, 4)
	const callers, conns, rounds = 4, 64, 20
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				flags := uint8(FlagACK)
				if r == 0 {
					flags = FlagSYN
				}
				for i := 0; i < conns; i++ {
					if res := process(sw, Time(r)*Time(Millisecond), clientPkt(g*conns+i, flags)); res.Verdict != dataplane.VerdictForward {
						t.Errorf("caller %d round %d conn %d: verdict %v", g, r, i, res.Verdict)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pools := [][]DIP{
			Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20", "10.0.0.4:20"),
			Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20"),
		}
		for r := 0; r < rounds; r++ {
			now := Time(r) * Time(Millisecond)
			if err := sw.UpdatePool(now, testVIP(), pools[r%2]); err != nil {
				t.Errorf("round %d: UpdatePool: %v", r, err)
				return
			}
			sw.AdvanceTo(now)
		}
	}()
	wg.Wait()
	if got, want := sw.Stats().Dataplane.Packets, uint64(callers*conns*rounds); got != want {
		t.Fatalf("switch counted %d packets, want %d", got, want)
	}
}
