package pipes

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func testConfig(pipes, conns int) Config {
	return Config{
		Pipes:        pipes,
		Dataplane:    dataplane.DefaultConfig(conns),
		Controlplane: ctrlplane.DefaultConfig(),
	}
}

func testVIP() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func testPool(n int) []dataplane.DIP {
	out := make([]dataplane.DIP, n)
	for i := range out {
		out[i] = netip.MustParseAddrPort(fmt.Sprintf("10.0.0.%d:80", i+1))
	}
	return out
}

func tupleN(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{9, byte(i >> 16), byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: uint16(1024 + i%50000), DstPort: 80, Proto: netproto.ProtoTCP,
	}
}

// processPacket is the reference per-packet step the batch path is checked
// against: under the owning pipe's lock it polls the pipe's control plane,
// runs pkt's synthetic frame (Packet.Frame) through the data plane and hands
// the result to the CPU, with neither the batch lock nor either of the
// engine's loops. The tests build packets and convert them at their own
// edge.
func processPacket(e *Engine, now simtime.Time, pkt *netproto.Packet) (res dataplane.Result) {
	var f netproto.Frame
	pkt.Frame(&f)
	p := e.pipes[e.PipeOf(f.Tuple)]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cp.Advance(now)
	p.dp.ProcessFrameInto(now, &f, &res)
	p.cp.HandleTupleResultInto(now, f.Tuple, &res)
	p.processed++
	return res
}

// processBatch runs pkts through e as one batch of synthetic frames.
func processBatch(e *Engine, now simtime.Time, pkts []*netproto.Packet) []dataplane.Result {
	frames := make([]netproto.Frame, len(pkts))
	for i, pkt := range pkts {
		pkt.Frame(&frames[i])
	}
	results := make([]dataplane.Result, len(pkts))
	e.ProcessFramesInto(now, frames, results)
	return results
}

// TestShardingPinsConnections asserts every connection maps to a stable
// pipe, traffic spreads across pipes, and per-pipe ConnTables stay
// disjoint.
func TestShardingPinsConnections(t *testing.T) {
	e, err := New(testConfig(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddVIP(0, testVIP(), testPool(8), 0); err != nil {
		t.Fatal(err)
	}
	const conns = 800
	seen := map[int]int{}
	for i := 0; i < conns; i++ {
		tup := tupleN(i)
		pi := e.PipeOf(tup)
		if again := e.PipeOf(tup); again != pi {
			t.Fatalf("PipeOf not stable: %d then %d", pi, again)
		}
		seen[pi]++
		res := processPacket(e, 0, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
		if res.Verdict != dataplane.VerdictForward {
			t.Fatalf("conn %d: verdict = %v", i, res.Verdict)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 pipes saw traffic: %v", len(seen), seen)
	}
	for pi, n := range seen {
		// A uniform shard puts ~200 connections on each pipe; a pipe with
		// fewer than half or more than double signals a broken shard hash.
		if n < conns/8 || n > conns/2 {
			t.Errorf("pipe %d holds %d/%d connections — shard badly skewed", pi, n, conns)
		}
	}
	st := e.Stats()
	if st.Dataplane.Packets != conns {
		t.Fatalf("aggregate packets = %d, want %d", st.Dataplane.Packets, conns)
	}
	var sum uint64
	for _, p := range st.PipePackets {
		sum += p
	}
	if sum != conns {
		t.Fatalf("per-pipe packet sum = %d, want %d", sum, conns)
	}
}

// flushLog is a test tracer: it keeps each pipe's learn-filter flushes in
// order and fails the test on any flush larger than the filter holds.
type flushLog struct {
	t        *testing.T
	name     string
	capacity int
	flushes  [][]telemetry.Event // per pipe
}

func (l *flushLog) RegisterVIP(int, telemetry.VIPKey) *telemetry.VIPSeries { return nil }

func (l *flushLog) Trace(ev telemetry.Event) {
	if ev.Kind != telemetry.KindLearnFlush {
		return
	}
	if ev.Batch > l.capacity {
		l.t.Errorf("%s: pipe %d flushed %d learn events at %v, capacity %d", l.name, ev.Pipe, ev.Batch, ev.Now, l.capacity)
	}
	l.flushes[ev.Pipe] = append(l.flushes[ev.Pipe], ev)
}

// TestBatchMatchesSequential asserts ProcessFramesInto returns, in input
// order, exactly the results the per-frame step (processPacket) yields on
// an identical engine, leaves the same chip counters and flushes each
// pipe's learn filter at the same instants with the same batches. The
// workload:
// one batch of 300 SYNs over 120 connections (duplicates suppressed by the
// filter), then six rounds over 300 connections — SYNs, then established
// traffic, with a DIP leaving the pool under PCC midway. The learn8 cases
// run an 8-event learn filter, which every shard fills many times within
// one batch; a batch that polled only once per shard would hand the CPU
// one oversized flush instead of several full ones.
func TestBatchMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name            string
		pipes, learnCap int
	}{
		{"2pipes", 2, 0},
		{"4pipes", 4, 0},
		{"2pipes_learn8", 2, 8},
		{"4pipes_learn8", 4, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(side string) (*Engine, *flushLog) {
				cfg := testConfig(tc.pipes, 10000)
				if tc.learnCap > 0 {
					cfg.Dataplane.LearnFilterCapacity = tc.learnCap
				}
				log := &flushLog{t: t, name: side, capacity: cfg.Dataplane.LearnFilterCapacity,
					flushes: make([][]telemetry.Event, tc.pipes)}
				cfg.Dataplane.Tracer = log
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.AddVIP(0, testVIP(), testPool(8), 0); err != nil {
					t.Fatal(err)
				}
				return e, log
			}
			batched, batchedLog := mk("batch")
			seq, seqLog := mk("per-frame")
			check := func(what string, now simtime.Time, pkts []*netproto.Packet) {
				t.Helper()
				got := processBatch(batched, now, pkts)
				differ := 0
				for i, pkt := range pkts {
					if want := processPacket(seq, now, pkt); got[i] != want {
						if differ == 0 {
							t.Errorf("%s packet %d: batch %+v, per-frame %+v", what, i, got[i], want)
						}
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%s: %d of %d packets differ", what, differ, len(pkts))
				}
			}

			var pkts []*netproto.Packet
			for i := 0; i < 300; i++ {
				pkts = append(pkts, &netproto.Packet{Tuple: tupleN(i % 120), TCPFlags: netproto.FlagSYN})
			}
			check("duplicate SYNs", 1000, pkts)
			const conns = 300
			now := simtime.Time(simtime.Second)
			for round := 0; round < 6; round++ {
				pkts = pkts[:0]
				for i := 0; i < conns; i++ {
					flags := netproto.FlagACK
					if round == 0 {
						flags = netproto.FlagSYN
					}
					pkts = append(pkts, &netproto.Packet{Tuple: tupleN(i), TCPFlags: flags})
				}
				check(fmt.Sprintf("round %d", round), now, pkts)
				if round == 2 {
					for _, e := range []*Engine{batched, seq} {
						if err := e.RemoveDIP(now, testVIP(), testPool(8)[0]); err != nil {
							t.Fatal(err)
						}
					}
				}
				now = now.Add(simtime.Duration(simtime.Second))
				batched.Advance(now)
				seq.Advance(now)
			}

			st := batched.Stats()
			if want := seq.Stats(); !reflect.DeepEqual(st, want) {
				t.Fatalf("chip stats differ:\nbatch     %+v\nper-frame %+v", st, want)
			}
			if !reflect.DeepEqual(batchedLog.flushes, seqLog.flushes) {
				t.Fatalf("learn flushes differ:\nbatch     %v\nper-frame %v", batchedLog.flushes, seqLog.flushes)
			}
			for pi, n := range st.PipePackets {
				if n == 0 {
					t.Fatalf("pipe %d processed no packets: %v", pi, st.PipePackets)
				}
			}
			if want := uint64(300 + 6*conns); st.Dataplane.Packets != want {
				t.Fatalf("chip packets = %d, want %d", st.Dataplane.Packets, want)
			}
		})
	}
}

// TestPerConnectionConsistencyAcrossBatches asserts a connection keeps its
// DIP across batches and across a PCC pool update, on every pipe.
func TestPerConnectionConsistencyAcrossBatches(t *testing.T) {
	e, err := New(testConfig(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	pool := testPool(8)
	if err := e.AddVIP(0, vip, pool, 0); err != nil {
		t.Fatal(err)
	}
	const conns = 400
	first := make(map[int]dataplane.DIP, conns)
	var pkts []*netproto.Packet
	for i := 0; i < conns; i++ {
		pkts = append(pkts, &netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagSYN})
	}
	now := simtime.Time(0)
	for i, res := range processBatch(e, now, pkts) {
		if res.Verdict != dataplane.VerdictForward {
			t.Fatalf("conn %d: verdict %v", i, res.Verdict)
		}
		first[i] = res.DIP
	}
	// Let every pipe's CPU install the learned connections, then remove a
	// DIP under PCC.
	now = now.Add(simtime.Duration(simtime.Second))
	e.Advance(now)
	removed := pool[0]
	if err := e.RemoveDIP(now, vip, removed); err != nil {
		t.Fatal(err)
	}
	now = now.Add(simtime.Duration(simtime.Second))
	e.Advance(now)

	var data []*netproto.Packet
	for i := 0; i < conns; i++ {
		data = append(data, &netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagACK})
	}
	for i, res := range processBatch(e, now, data) {
		if first[i] == removed {
			continue // pinned to the DIP that left service; exempt
		}
		if res.Verdict != dataplane.VerdictForward || res.DIP != first[i] {
			t.Fatalf("conn %d: PCC violated: first %v, now (%v, %v)",
				i, first[i], res.Verdict, res.DIP)
		}
	}
}

// TestAggregatedStats asserts engine stats equal the sum over per-pipe
// stats, and that connection counts and SRAM figures aggregate.
func TestAggregatedStats(t *testing.T) {
	e, err := New(testConfig(3, 9000))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddVIP(0, testVIP(), testPool(4), 0); err != nil {
		t.Fatal(err)
	}
	var pkts []*netproto.Packet
	for i := 0; i < 500; i++ {
		pkts = append(pkts, &netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagSYN})
	}
	processBatch(e, 0, pkts)
	e.Advance(simtime.Time(simtime.Second))

	var want dataplane.Stats
	var conns, mem int
	var inserted uint64
	for i := 0; i < e.NumPipes(); i++ {
		want.Add(e.Dataplane(i).Stats())
		conns += e.Controlplane(i).TrackedConns()
		mem += e.Dataplane(i).Memory().Total()
		inserted += e.Controlplane(i).Metrics().Inserted
	}
	got := e.Stats()
	if got.Dataplane != want {
		t.Fatalf("aggregate dataplane stats:\n got %+v\nwant %+v", got.Dataplane, want)
	}
	if got.Connections != conns || got.MemoryBytes != mem {
		t.Fatalf("aggregate conns/mem = (%d, %d), want (%d, %d)",
			got.Connections, got.MemoryBytes, conns, mem)
	}
	if got.Controlplane.Inserted != inserted || inserted == 0 {
		t.Fatalf("aggregate inserted = %d, want %d (nonzero)", got.Controlplane.Inserted, inserted)
	}
	if got.MemoryBytes != e.Memory().Total() {
		t.Fatalf("Stats.MemoryBytes = %d, Memory().Total() = %d", got.MemoryBytes, e.Memory().Total())
	}
}

// TestPerPipeSRAMBudget asserts each pipe is provisioned with its share of
// the chip budget, so chip-level allocated SRAM stays within the chip.
func TestPerPipeSRAMBudget(t *testing.T) {
	cfg := testConfig(4, 100000)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perPipe := cfg.Dataplane.Chip.SRAMBytes / 4
	for i := 0; i < 4; i++ {
		chip := e.Dataplane(i).Chip()
		if chip.Config().SRAMBytes != perPipe {
			t.Errorf("pipe %d budget = %d, want %d", i, chip.Config().SRAMBytes, perPipe)
		}
	}
	if used := e.Used().SRAMBytes; used > cfg.Dataplane.Chip.SRAMBytes {
		t.Errorf("chip-level allocated SRAM %d exceeds chip budget %d",
			used, cfg.Dataplane.Chip.SRAMBytes)
	}
}

// TestEmptyPoolDropsMultiPipe asserts the empty-pool drop verdict holds on
// the sharded path: with every pipe's current pool emptied, packets drop
// with VerdictNoBackend on whichever pipe they shard to.
func TestEmptyPoolDropsMultiPipe(t *testing.T) {
	e, err := New(testConfig(4, 4000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := e.AddVIP(0, vip, testPool(2), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumPipes(); i++ {
		if err := e.Dataplane(i).WritePool(vip, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	var pkts []*netproto.Packet
	for i := 0; i < 200; i++ {
		pkts = append(pkts, &netproto.Packet{Tuple: tupleN(i), TCPFlags: netproto.FlagSYN})
	}
	for i, res := range processBatch(e, 0, pkts) {
		if res.Verdict != dataplane.VerdictNoBackend {
			t.Fatalf("packet %d: verdict = %v, want %v", i, res.Verdict, dataplane.VerdictNoBackend)
		}
		if res.DIP.IsValid() {
			t.Fatalf("packet %d: forwarded to %v from an empty pool", i, res.DIP)
		}
	}
	if st := e.Stats(); st.Dataplane.NoBackend != 200 {
		t.Fatalf("aggregate NoBackend = %d, want 200", st.Dataplane.NoBackend)
	}
}

// TestAddVIPRollsBackOnFailure asserts a failed chip-wide AddVIP leaves no
// pipe with a half-programmed VIP.
func TestAddVIPRollsBackOnFailure(t *testing.T) {
	e, err := New(testConfig(3, 3000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := e.AddVIP(0, vip, testPool(2), 0); err != nil {
		t.Fatal(err)
	}
	// Duplicate announcement fails on every pipe; the original must stay.
	if err := e.AddVIP(0, vip, testPool(3), 0); err == nil {
		t.Fatal("duplicate AddVIP should fail")
	}
	for i := 0; i < e.NumPipes(); i++ {
		if !e.Dataplane(i).HasVIP(vip) {
			t.Fatalf("pipe %d lost the original VIP after failed re-add", i)
		}
	}
	pool, err := e.CurrentPool(vip)
	if err != nil || len(pool) != 2 {
		t.Fatalf("original pool damaged: %v, %v", pool, err)
	}
}

// TestAddVIPRollsBackSlotExhaustion: a pipe whose control plane holds its
// 65 536 VIPs already refuses the next with ctrlplane.ErrVIPSlots, and the
// fan-out withdraws the VIP from the pipes that took it.
func TestAddVIPRollsBackSlotExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("65 536 VIPs on one pipe: ~90 MB of heap")
	}
	cfg := testConfig(2, 2000)
	cfg.Dataplane.VersionBits = 1 // keep 65 536 VIPs small: one spare version each
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := e.Controlplane(1)
	for i := 0; ; i++ {
		vip := dataplane.VIP{Addr: netip.AddrFrom4([4]byte{30, byte(i >> 16), byte(i >> 8), byte(i)}), Port: 80, Proto: netproto.ProtoTCP}
		if err := full.AddVIP(0, vip, testPool(1), 0); errors.Is(err, ctrlplane.ErrVIPSlots) {
			if i != 1<<16 {
				t.Fatalf("pipe 1 ran out of VIP slots after %d VIPs, want 65536", i)
			}
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	vip := testVIP()
	if err := e.AddVIP(0, vip, testPool(2), 0); !errors.Is(err, ctrlplane.ErrVIPSlots) {
		t.Fatalf("AddVIP on a chip with a full pipe = %v, want ErrVIPSlots", err)
	}
	if _, err := e.Controlplane(0).CurrentPool(vip); e.Dataplane(0).HasVIP(vip) || err == nil {
		t.Fatalf("pipe 0 kept the VIP pipe 1 refused: data plane %v, control plane %v", e.Dataplane(0).HasVIP(vip), err)
	}
}

// TestConcurrentTrafficAndUpdates drives packets, pool updates, stats
// reads and connection terminations from concurrent goroutines — the
// sharded path must be race-clean (run under -race).
func TestConcurrentTrafficAndUpdates(t *testing.T) {
	e, err := New(testConfig(4, 20000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := e.AddVIP(0, vip, testPool(8), 0); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 300
	now := simtime.Time(simtime.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var pkts []*netproto.Packet
			for i := 0; i < perWorker; i++ {
				pkts = append(pkts, &netproto.Packet{
					Tuple: tupleN(w*perWorker + i), TCPFlags: netproto.FlagSYN,
				})
			}
			for _, res := range processBatch(e, now, pkts) {
				if res.Verdict != dataplane.VerdictForward &&
					res.Verdict != dataplane.VerdictNoBackend {
					t.Errorf("unexpected verdict %v", res.Verdict)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := netip.MustParseAddrPort("10.0.9.9:80")
		for i := 0; i < 20; i++ {
			if err := e.AddDIP(now, vip, extra); err != nil {
				t.Errorf("AddDIP: %v", err)
				return
			}
			if err := e.RemoveDIP(now, vip, extra); err != nil {
				t.Errorf("RemoveDIP: %v", err)
				return
			}
			_ = e.Stats()
			e.EndConnection(now, tupleN(i))
		}
	}()
	wg.Wait()
	e.Advance(now.Add(simtime.Duration(simtime.Second)))
	if st := e.Stats(); st.Dataplane.Packets != workers*perWorker {
		t.Fatalf("aggregate packets = %d, want %d", st.Dataplane.Packets, workers*perWorker)
	}
}

// TestFaultOnMissingPipeIsNoOp: a fault plan is caller input, so an event
// naming a pipe the chip does not have must be ignored — not index past
// the pipes — while events for real pipes in the same plan still land.
func TestFaultOnMissingPipeIsNoOp(t *testing.T) {
	e := newTestEngine(t, 2, 10000)
	_, before := e.Dataplane(0).OccupancyInfo()
	var evs []faults.Event
	for _, pipe := range []int{2, 7} {
		evs = append(evs,
			faults.Event{Kind: faults.CPUStall, Pipe: pipe, Duration: simtime.Duration(simtime.Second)},
			faults.Event{Kind: faults.CPUSlow, Pipe: pipe, Scale: 0.5},
			faults.Event{Kind: faults.TableLimit, Pipe: pipe, Limit: 1},
			faults.Event{Kind: faults.DigestLoss, Pipe: pipe, Scale: 1},
		)
	}
	evs = append(evs, faults.Event{Kind: faults.TableLimit, Pipe: 1, Limit: 1})
	inj := faults.NewInjector(faults.Plan{Seed: 1, Events: evs}, e)
	inj.Advance(0)
	if got := inj.Metrics().Injected; got != uint64(len(evs)) {
		t.Fatalf("injector applied %d of %d events", got, len(evs))
	}
	if _, c := e.Dataplane(0).OccupancyInfo(); c != before {
		t.Fatalf("pipe 0 capacity moved %d -> %d: an out-of-range event landed on it", before, c)
	}
	if _, c := e.Dataplane(1).OccupancyInfo(); c != 1 {
		t.Fatalf("pipe 1 capacity = %d, want the injected limit 1", c)
	}
}
