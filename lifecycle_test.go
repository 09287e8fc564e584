package silkroad

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/cuckoo"
)

// The connection-lifecycle path — open, learn, flush, install, hit, end — as
// the benchmark's newconn workload drives it: short connections against a
// table most of the way full, pool updates landing among them, batches of 64
// frames. Three properties are pinned here: driving the runtime (AdvanceTo)
// per batch changes nothing the per-frame poll would not do on its own,
// neither does polling once per batch and again whenever the learn filter
// fills, and a steady-state cycle allocates nothing.

const (
	lifeBatch = 64
	lifeSlot  = 2 * Microsecond // per packet: 4-packet connections at 125 K/s
	lifeVIPs  = 8
)

func lifeVIP(v int) VIP {
	return VIP{Addr: netip.AddrFrom4([4]byte{20, 0, 0, byte(1 + v)}), Port: 80, Proto: TCP}
}

func lifePool(v, n int) []DIP {
	pool := make([]DIP, n)
	for i := range pool {
		pool[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(v), 0, byte(1 + i)}), 20)
	}
	return pool
}

func lifeTuple(c int) FiveTuple {
	return FiveTuple{
		Src:     netip.AddrFrom4([4]byte{1, byte(c >> 16), byte(c >> 8), byte(c)}),
		Dst:     lifeVIP(c % lifeVIPs).Addr,
		SrcPort: uint16(1024 + c%60000), DstPort: 80, Proto: TCP,
	}
}

// lifeFrame marshals connection c's packet with the given flags into buf's
// storage and parses it into f.
func lifeFrame(tb testing.TB, c int, flags uint8, buf []byte, f *Frame) {
	tb.Helper()
	tupleFrame(tb, lifeTuple(c), flags, buf, f)
}

// tupleFrame is lifeFrame for any tuple.
func tupleFrame(tb testing.TB, tuple FiveTuple, flags uint8, buf []byte, f *Frame) {
	tb.Helper()
	p := Packet{Tuple: tuple, TCPFlags: flags}
	raw, err := p.Marshal(buf[:0])
	if err != nil {
		tb.Fatal(err)
	}
	if err := ParseFrame(raw, f); err != nil {
		tb.Fatal(err)
	}
}

// lifeSwitch builds the scripts' switch; aging is its AgingTimeout, 0 for
// connections that live until ended, and learnCap its LearnFilterCapacity,
// 0 for the default.
func lifeSwitch(tb testing.TB, tableN int, aging Duration, learnCap int) *Switch {
	tb.Helper()
	cfg := Defaults(tableN)
	cfg.Clock = NewManualClock(0)
	cfg.Controlplane.AgingTimeout = aging
	if learnCap > 0 {
		cfg.Dataplane.LearnFilterCapacity = learnCap
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for v := 0; v < lifeVIPs; v++ {
		if err := sw.AddVIP(0, lifeVIP(v), lifePool(v, 4)); err != nil {
			tb.Fatal(err)
		}
	}
	return sw
}

type lifeOutcome struct {
	Verdict Verdict
	DIP     DIP
	Version uint32
}

// lifeDriver is how lifeScript hands each batch to the switch.
type lifeDriver int

const (
	// framePoll: ProcessFramesInto alone, whose per-packet step polls the
	// control plane before every frame.
	framePoll lifeDriver = iota
	// advanceTo: AdvanceTo runs the runtime up to each batch's instant
	// before ProcessFramesInto.
	advanceTo
	// batchPoll: the control plane's Advance once per batch, then the bare
	// pipeline and CPU steps per frame, polling again only when the learn
	// filter is full — ROADMAP item 2's per-batch poll.
	batchPoll
)

// lifeCase is one run of lifeScript.
type lifeCase struct {
	seed     int64
	driver   lifeDriver
	aging    Duration // AgingTimeout; 0 for connections that live until ended
	vips     int      // VIPs announced; the script sends to the first lifeVIPs
	learnCap int      // LearnFilterCapacity; 0 for the default
}

// lifeRun is what a lifeScript run leaves: every packet's outcome, the final
// counters and the final ConnTable, entry by entry in physical order.
type lifeRun struct {
	out     []lifeOutcome
	stats   Stats
	table   []cuckoo.Entry
	repolls int // batchPoll's polls on a full learn filter, all mid-batch
}

// lifeScript runs the seeded script against a fresh switch built as c
// says. The script: prime the table with resident connections, then keep
// 1024 short connections (SYN, ACK, ACK, FIN) open — 0.8 of the table's
// size in all — each slot advancing a random one, so a connection outlives
// its pending window; a FIN ends its connection after the batch and a new
// connection takes its place; every 1024 packets one VIP's pool gains or
// loses a DIP. c.driver decides how each batch is handed over.
func lifeScript(t *testing.T, c lifeCase) lifeRun {
	const (
		tableN   = 20_000
		window   = 1024
		resident = tableN*8/10 - window
		packets  = 64 * 1024
	)
	sw := lifeSwitch(t, tableN, c.aging, c.learnCap)
	for v := lifeVIPs; v < c.vips; v++ {
		idle := VIP{Addr: netip.AddrFrom4([4]byte{21, 0, byte(v >> 8), byte(v)}), Port: 80, Proto: TCP}
		if err := sw.AddVIP(0, idle, lifePool(0, 4)); err != nil {
			t.Fatal(err)
		}
	}
	frames := make([]Frame, lifeBatch)
	results := make([]Result, lifeBatch)
	bufs := make([][]byte, lifeBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 0, 128)
	}
	var run lifeRun
	process := func(now Time) {
		if c.driver != batchPoll {
			sw.ProcessFramesInto(now, frames, results)
			return
		}
		dp, cp := sw.Dataplane(), sw.Controlplane()
		cp.Advance(now)
		for j := range frames {
			if dp.LearnFilter().Full() {
				cp.Advance(now)
				run.repolls++
			}
			dp.ProcessFrameInto(now, &frames[j], &results[j])
			cp.HandleTupleResultInto(now, frames[j].Tuple, &results[j])
		}
	}

	// Prime at the insertion CPU's pace (5 us a connection), then drain.
	now := Time(0)
	for conn := 0; conn < resident; conn += lifeBatch {
		now = now.Add(lifeBatch * 5 * Microsecond)
		for j := range frames {
			lifeFrame(t, conn+j, FlagSYN, bufs[j], &frames[j])
		}
		process(now)
	}
	now = now.Add(50 * Millisecond)
	sw.AdvanceTo(now)
	if n := sw.PendingWork(); n != 0 {
		t.Fatalf("%d control-plane items pending after the priming drain", n)
	}
	if got := sw.Stats().Connections; got != resident {
		t.Fatalf("primed %d connections, want %d", got, resident)
	}

	rng := rand.New(rand.NewSource(c.seed))
	flags := [4]uint8{FlagSYN, FlagACK, FlagACK, FlagFIN | FlagACK}
	open := make([]int, window) // connection id in each window slot
	sent := make([]int, window) // packets it has sent
	next := resident
	for i := range open {
		open[i], next = next, next+1
	}
	run.out = make([]lifeOutcome, 0, packets)
	var fins []int
	updates := 0
	for done := 0; done < packets; done += lifeBatch {
		now = now.Add(lifeBatch * lifeSlot)
		if done%1024 == 0 {
			// Updates come in pairs: VIP v gains a fifth DIP, then loses it.
			v := (updates / 2) % lifeVIPs
			if err := sw.UpdatePool(now, lifeVIP(v), lifePool(v, 5-updates%2)); err != nil {
				t.Fatal(err)
			}
			updates++
		}
		if c.driver == advanceTo {
			sw.AdvanceTo(now)
		}
		fins = fins[:0]
		for j := range frames {
			w := rng.Intn(window)
			lifeFrame(t, open[w], flags[sent[w]], bufs[j], &frames[j])
			if sent[w]++; sent[w] == len(flags) {
				fins = append(fins, open[w])
				open[w], sent[w], next = next, 0, next+1
			}
		}
		process(now)
		for _, r := range results {
			run.out = append(run.out, lifeOutcome{r.Verdict, r.DIP, r.Version})
		}
		for _, conn := range fins {
			sw.EndConnection(now, lifeTuple(conn))
		}
	}
	run.stats = sw.Stats()
	if st := run.stats; st.Controlplane.UpdatesCompleted == 0 || st.Controlplane.ConnsEnded == 0 ||
		st.Dataplane.TransitChecks == 0 || st.Controlplane.Inserted <= resident {
		t.Fatalf("script did not exercise the lifecycle: %+v", st)
	}
	run.table = sw.Dataplane().ConnTable().Entries()
	return run
}

// polledRuns memoizes the framePoll runs both differential tests compare
// against: the 6 400-VIP one takes seconds.
var polledRuns = map[lifeCase]lifeRun{}

func polledScript(t *testing.T, c lifeCase) lifeRun {
	c.driver = framePoll
	run, ok := polledRuns[c]
	if !ok {
		run = lifeScript(t, c)
		polledRuns[c] = run
	}
	return run
}

// sameRun fails t unless two runs of the script saw the same outcome for
// every packet and ended with the same counters.
func sameRun(t *testing.T, refName string, ref lifeRun, name string, got lifeRun) {
	t.Helper()
	for i := range ref.out {
		if ref.out[i] != got.out[i] {
			t.Fatalf("packet %d: %s %+v, %s %+v", i, refName, ref.out[i], name, got.out[i])
		}
	}
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Fatalf("counters differ:\n %s %+v\n %s %+v", refName, ref.stats, name, got.stats)
	}
}

// lifeCases are the differential tests' scripts. The default 2 048-event
// learn filter never fills mid-batch in the script, so the last case's
// 16-event one makes it fill.
var lifeCases = []struct {
	name string
	c    lifeCase
}{
	{"seed1", lifeCase{seed: 1, vips: lifeVIPs}},
	{"seed7", lifeCase{seed: 7, vips: lifeVIPs}},
	{"seed7_6400vips", lifeCase{seed: 7, vips: 6400}},
	{"seed7_learn16", lifeCase{seed: 7, vips: lifeVIPs, learnCap: 16}},
}

// TestAdvanceToMatchesFramePoll is the differential test at the facade: the
// same script driven with AdvanceTo per batch and with the per-frame poll
// alone yields the same (Verdict, DIP, Version) for every packet and the
// same counters. The runtime's step horizon moves when background work is
// executed within a span no packet arrives in — never what a packet sees.
// The 6 400-VIP case holds the poll to that with thousands of idle VIPs
// beside the script's eight; it skips under -race, where its per-frame walk
// of every VIP takes minutes and the script runs on one goroutine.
func TestAdvanceToMatchesFramePoll(t *testing.T) {
	for _, lc := range lifeCases {
		t.Run(lc.name, func(t *testing.T) {
			if lc.c.vips > lifeVIPs && raceBuild() {
				t.Skip("thousands of idle VIPs: skipped under -race")
			}
			driven := lc.c
			driven.driver = advanceTo
			sameRun(t, "per-frame poll", polledScript(t, lc.c), "AdvanceTo per batch", lifeScript(t, driven))
		})
	}
}

// TestBatchPollMatchesFramePoll is ROADMAP item 2's exactness argument,
// tested without moving the poll: every frame of a batch shares its
// instant, so after one poll per batch the only work a per-frame poll can
// find is a learn filter that filled mid-batch, due at once. Polling once
// per batch and again whenever the filter is full therefore yields the same
// (Verdict, DIP, Version) for every packet and the same counters as the
// per-frame poll.
func TestBatchPollMatchesFramePoll(t *testing.T) {
	for _, lc := range lifeCases {
		t.Run(lc.name, func(t *testing.T) {
			if lc.c.vips > lifeVIPs && raceBuild() {
				t.Skip("thousands of idle VIPs: skipped under -race")
			}
			batched := lc.c
			batched.driver = batchPoll
			run := lifeScript(t, batched)
			sameRun(t, "per-frame poll", polledScript(t, lc.c), "poll per batch", run)
			if lc.c.learnCap > 0 && run.repolls == 0 {
				t.Fatalf("the %d-event learn filter never filled mid-batch: the re-poll went untested", lc.c.learnCap)
			}
			t.Logf("%d mid-batch polls on a full learn filter", run.repolls)
		})
	}
}

// TestAgingIdleMatchesAgingOff: until a connection ages, a switch that ages
// is the switch that does not. The script run with no AgingTimeout and with
// one longer than the script — records beside last-seen times, a touch per
// forwarded packet — yields the same outcome for every packet, the same
// counters and the same entry in every ConnTable position.
func TestAgingIdleMatchesAgingOff(t *testing.T) {
	for _, driver := range []lifeDriver{framePoll, advanceTo} {
		off := lifeScript(t, lifeCase{seed: 7, driver: driver, vips: lifeVIPs})
		idle := lifeScript(t, lifeCase{seed: 7, driver: driver, aging: Minute, vips: lifeVIPs})
		for i := range off.out {
			if off.out[i] != idle.out[i] {
				t.Fatalf("driver %d, packet %d: aging off %+v, aging idle %+v", driver, i, off.out[i], idle.out[i])
			}
		}
		if !reflect.DeepEqual(off.stats, idle.stats) {
			t.Fatalf("driver %d: counters differ:\n aging off  %+v\n aging idle %+v", driver, off.stats, idle.stats)
		}
		if !reflect.DeepEqual(off.table, idle.table) {
			t.Fatalf("driver %d: ConnTable differs between aging off (%d entries) and aging idle (%d)", driver, len(off.table), len(idle.table))
		}
	}
}

// TestAgingMatchesOracle: with a short AgingTimeout, the connections the
// switch ages out are exactly those a map of last-seen times says went a
// timeout without traffic — through reused records, touched connections and
// digest-alias hits (8-bit digests make them common), where the packet's
// ConnTable hit names another connection's entry and the touch must still
// land on its own (DESIGN.md, "The connection store").
//
// Aging steps on a 100 ms grid from time 0, so at a grid instant t a
// connection last seen at L is gone iff t - L >= timeout, whenever within its
// tick L fell; the oracle is judged at grid instants only.
func TestAgingMatchesOracle(t *testing.T) {
	const (
		conns   = 2048
		timeout = 800 * Millisecond
		tick    = 100 * Millisecond // ctrlplane.New: max(timeout/8, 100 ms)
		busy    = 30                // ticks with traffic
	)
	cfg := Defaults(4096)
	cfg.Clock = NewManualClock(0)
	cfg.Dataplane.DigestBits = 8
	cfg.Controlplane.AgingTimeout = timeout
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddVIP(0, lifeVIP(0), lifePool(0, 4)); err != nil {
		t.Fatal(err)
	}
	tuple := func(c int) FiveTuple {
		tu := lifeTuple(c)
		tu.Dst = lifeVIP(0).Addr
		return tu
	}
	frames := make([]Frame, lifeBatch)
	results := make([]Result, lifeBatch)
	bufs := make([][]byte, lifeBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 0, 128)
	}
	table := sw.Dataplane().ConnTable()
	installed := func(c int) bool {
		_, ok := table.Find(sw.Dataplane().KeyHash(tuple(c)))
		return ok
	}

	// Every connection opens and is installed within the first tick.
	lastSeen := map[int]Time{}
	now := Time(0)
	for c := 0; c < conns; c += lifeBatch {
		now = now.Add(lifeBatch * 5 * Microsecond)
		for j := range frames {
			tupleFrame(t, tuple(c+j), FlagSYN, bufs[j], &frames[j])
			lastSeen[c+j] = now
		}
		sw.ProcessFramesInto(now, frames, results)
	}
	now = now.Add(50 * Millisecond)
	sw.AdvanceTo(now)
	if got := sw.Stats().Connections; got != conns || sw.PendingWork() != 0 || now >= Time(tick) {
		t.Fatalf("primed %d connections by %v with %d items pending, want %d within the first tick", got, now, sw.PendingWork(), conns)
	}

	rng := rand.New(rand.NewSource(5))
	aliasHits, aged := 0, 0
	for k := 1; len(lastSeen) > 0; k++ {
		grid := Time(k * int(tick))
		sw.AdvanceTo(grid)
		for c, seen := range lastSeen {
			if grid.Sub(seen) >= timeout {
				delete(lastSeen, c)
				aged++
			}
		}
		st := sw.Stats()
		if st.Connections != len(lastSeen) || int(st.Controlplane.AgedOut) != aged {
			t.Fatalf("tick %d: %d connections, %d aged out; oracle holds %d, aged %d", k, st.Connections, st.Controlplane.AgedOut, len(lastSeen), aged)
		}
		for c := 0; c < conns; c++ {
			if _, live := lastSeen[c]; installed(c) != live {
				t.Fatalf("tick %d: connection %d installed = %v, oracle live = %v", k, c, !live, live)
			}
		}
		if k > busy {
			continue // the rest idle out
		}
		// Traffic inside the tick, off the grid: about one live connection in
		// seven, so some go eight ticks without and some never do.
		now, n := grid, 0
		var sent [lifeBatch]int
		flush := func() {
			now = now.Add(Millisecond)
			sw.ProcessFramesInto(now, frames[:n], results[:n])
			for j, r := range results[:n] {
				e, err := table.EntryAt(r.ConnHandle)
				if !r.ConnHit || err != nil {
					t.Fatalf("tick %d: a live connection's packet missed ConnTable: %+v", k, r)
				}
				if e.KeyHash != r.KeyHash {
					aliasHits++
				}
				lastSeen[sent[j]] = now
			}
			n = 0
		}
		for c := 0; c < conns; c++ {
			if _, live := lastSeen[c]; !live || rng.Intn(7) != 0 {
				continue
			}
			tupleFrame(t, tuple(c), FlagACK, bufs[n], &frames[n])
			sent[n] = c
			if n++; n == lifeBatch {
				flush()
			}
		}
		flush()
	}
	if aged != conns || aliasHits == 0 {
		t.Fatalf("%d of %d connections aged out, %d digest-alias hits: the script did not exercise what it claims", aged, conns, aliasHits)
	}
	if st := sw.Stats(); st.Controlplane.ConnsEnded != 0 {
		t.Fatalf("ConnsEnded = %d: connections left by EndConnection, not by aging", st.Controlplane.ConnsEnded)
	}
}

// TestConnLifecycleZeroAlloc: on a warmed switch, a whole connection
// lifecycle — SYNs miss and are learned, the runtime flushes the filter and
// installs them, their next packets hit ConnTable, EndConnection deletes
// them — allocates nothing: learn events travel by value through the
// filter's reused buffers and the insert-queue ring, shadows live by value
// in a slab whose slots are reused, and the tuple is hashed in the pipeline
// only. On a switch that ages, the connections are left idle instead and an
// aging step's sweep releases them, which allocates nothing either.
func TestConnLifecycleZeroAlloc(t *testing.T) {
	t.Run("ends", func(t *testing.T) { lifecycleZeroAlloc(t, 0) })
	t.Run("ages", func(t *testing.T) { lifecycleZeroAlloc(t, 100*Millisecond) })
}

func lifecycleZeroAlloc(t *testing.T, aging Duration) {
	sw := lifeSwitch(t, 20_000, aging, 0)
	syns, acks := make([]Frame, lifeBatch), make([]Frame, lifeBatch)
	tuples := make([]FiveTuple, lifeBatch)
	for j := range syns {
		lifeFrame(t, j, FlagSYN, make([]byte, 0, 128), &syns[j])
		lifeFrame(t, j, FlagACK, make([]byte, 0, 128), &acks[j])
		tuples[j] = lifeTuple(j)
	}
	results := make([]Result, lifeBatch)
	now := Time(0)
	var hits, learned int
	cycle := func() {
		now = now.Add(lifeBatch * lifeSlot)
		sw.AdvanceTo(now)
		sw.ProcessFramesInto(now, syns, results)
		for j := range results {
			if results[j].Learned {
				learned++
			}
		}
		now = now.Add(2 * Millisecond) // past the 1 ms flush and 64 insertions
		sw.AdvanceTo(now)
		sw.ProcessFramesInto(now, acks, results)
		for j := range results {
			if results[j].ConnHit {
				hits++
			}
		}
		if aging > 0 {
			now = now.Add(2 * aging) // past the first aging step a timeout after the ACKs
			sw.AdvanceTo(now)
			return
		}
		for j := range tuples {
			sw.EndConnection(now, tuples[j])
		}
	}
	const warm = 8
	for i := 0; i < warm; i++ { // grow the filter's buffers, the ring, the map
		cycle()
	}
	hits, learned = 0, 0
	const runs = 50
	allocs := testing.AllocsPerRun(runs, cycle)
	if want := (runs + 1) * lifeBatch; learned != want || hits != want {
		t.Fatalf("%d learned, %d hits over %d lifecycles: the cycle is not the one intended", learned, hits, want)
	}
	st := sw.Stats()
	if st.Connections != 0 || sw.PendingWork() != 0 {
		t.Fatalf("switch not back at rest: %d connections, %d pending", st.Connections, sw.PendingWork())
	}
	if aged := st.Controlplane.AgedOut; aging > 0 && (aged != (warm+runs+1)*lifeBatch || st.Controlplane.ConnsEnded != 0) {
		t.Fatalf("%d connections aged out and %d ended, want every one of %d aged", aged, st.Controlplane.ConnsEnded, (warm+runs+1)*lifeBatch)
	}
	if allocs != 0 {
		t.Fatalf("a %d-connection lifecycle allocated %.1f objects, want 0", lifeBatch, allocs)
	}
}
