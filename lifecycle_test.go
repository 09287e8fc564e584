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
// frames. Two properties are pinned here: driving the runtime (AdvanceTo)
// per batch changes nothing the per-frame poll would not do on its own, and
// a steady-state cycle allocates nothing.

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
// connections that live until ended.
func lifeSwitch(tb testing.TB, tableN int, aging Duration) *Switch {
	tb.Helper()
	cfg := Defaults(tableN)
	cfg.Clock = NewManualClock(0)
	cfg.Controlplane.AgingTimeout = aging
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

// lifeScript runs the seeded script against a fresh switch (see lifeSwitch
// for aging) that announces vips VIPs, of which the script sends to the
// first lifeVIPs only, and returns every packet's outcome, the final
// counters and the final ConnTable, entry by entry in physical order. The
// script: prime the table with resident connections, then keep 1024 short
// connections (SYN, ACK, ACK, FIN) open — 0.8 of the table's size in all —
// each slot advancing a random one, so a connection outlives its pending
// window; a FIN ends its connection after the batch and a new connection
// takes its place; every 1024 packets one VIP's pool gains or loses a DIP.
// With advance set, AdvanceTo runs the runtime up to each batch's instant
// before the batch; without, only the poll each frame makes does.
func lifeScript(t *testing.T, seed int64, advance bool, aging Duration, vips int) ([]lifeOutcome, Stats, []cuckoo.Entry) {
	const (
		tableN   = 20_000
		window   = 1024
		resident = tableN*8/10 - window
		packets  = 64 * 1024
	)
	sw := lifeSwitch(t, tableN, aging)
	defer sw.Close()
	for v := lifeVIPs; v < vips; v++ {
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

	// Prime at the insertion CPU's pace (5 us a connection), then drain.
	now := Time(0)
	for c := 0; c < resident; c += lifeBatch {
		now = now.Add(lifeBatch * 5 * Microsecond)
		for j := range frames {
			lifeFrame(t, c+j, FlagSYN, bufs[j], &frames[j])
		}
		sw.ProcessFramesInto(now, frames, results)
	}
	now = now.Add(50 * Millisecond)
	sw.AdvanceTo(now)
	if n := sw.PendingWork(); n != 0 {
		t.Fatalf("%d control-plane items pending after the priming drain", n)
	}
	if got := sw.Stats().Connections; got != resident {
		t.Fatalf("primed %d connections, want %d", got, resident)
	}

	rng := rand.New(rand.NewSource(seed))
	flags := [4]uint8{FlagSYN, FlagACK, FlagACK, FlagFIN | FlagACK}
	open := make([]int, window) // connection id in each window slot
	sent := make([]int, window) // packets it has sent
	next := resident
	for i := range open {
		open[i], next = next, next+1
	}
	out := make([]lifeOutcome, 0, packets)
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
		if advance {
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
		sw.ProcessFramesInto(now, frames, results)
		for _, r := range results {
			out = append(out, lifeOutcome{r.Verdict, r.DIP, r.Version})
		}
		for _, c := range fins {
			sw.EndConnection(now, lifeTuple(c))
		}
	}
	st := sw.Stats()
	if st.Controlplane.UpdatesCompleted == 0 || st.Controlplane.ConnsEnded == 0 ||
		st.Dataplane.TransitChecks == 0 || st.Controlplane.Inserted <= resident {
		t.Fatalf("script did not exercise the lifecycle: %+v", st)
	}
	return out, st, sw.Dataplane().ConnTable().Entries()
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
	for _, c := range []struct {
		name string
		seed int64
		vips int
	}{{"seed1", 1, lifeVIPs}, {"seed7", 7, lifeVIPs}, {"seed7_6400vips", 7, 6400}} {
		t.Run(c.name, func(t *testing.T) {
			if c.vips > lifeVIPs && raceBuild() {
				t.Skip("thousands of idle VIPs: skipped under -race")
			}
			polled, polledStats, _ := lifeScript(t, c.seed, false, 0, c.vips)
			driven, drivenStats, _ := lifeScript(t, c.seed, true, 0, c.vips)
			for i := range polled {
				if polled[i] != driven[i] {
					t.Fatalf("packet %d: per-frame poll %+v, AdvanceTo per batch %+v", i, polled[i], driven[i])
				}
			}
			if !reflect.DeepEqual(polledStats, drivenStats) {
				t.Fatalf("counters differ:\n per-frame poll %+v\n AdvanceTo      %+v", polledStats, drivenStats)
			}
		})
	}
}

// TestAgingIdleMatchesAgingOff: until a connection ages, a switch that ages
// is the switch that does not. The script run with no AgingTimeout and with
// one longer than the script — records beside last-seen times, a touch per
// forwarded packet — yields the same outcome for every packet, the same
// counters and the same entry in every ConnTable position.
func TestAgingIdleMatchesAgingOff(t *testing.T) {
	for _, advance := range []bool{false, true} {
		off, offStats, offTable := lifeScript(t, 7, advance, 0, lifeVIPs)
		idle, idleStats, idleTable := lifeScript(t, 7, advance, Minute, lifeVIPs)
		for i := range off {
			if off[i] != idle[i] {
				t.Fatalf("advance %v, packet %d: aging off %+v, aging idle %+v", advance, i, off[i], idle[i])
			}
		}
		if !reflect.DeepEqual(offStats, idleStats) {
			t.Fatalf("advance %v: counters differ:\n aging off  %+v\n aging idle %+v", advance, offStats, idleStats)
		}
		if !reflect.DeepEqual(offTable, idleTable) {
			t.Fatalf("advance %v: ConnTable differs between aging off (%d entries) and aging idle (%d)", advance, len(offTable), len(idleTable))
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
	defer sw.Close()
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
	sw := lifeSwitch(t, 20_000, aging)
	defer sw.Close()
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
