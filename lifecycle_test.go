package silkroad

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
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

func lifeSwitch(tb testing.TB, tableN int) *Switch {
	tb.Helper()
	cfg := Defaults(tableN)
	cfg.Clock = NewManualClock(0)
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

// lifeScript runs the seeded script against a fresh switch and returns
// every packet's outcome and the final counters. The script: prime the
// table with resident connections, then keep 1024 short connections (SYN,
// ACK, ACK, FIN) open — 0.8 of the table's size in all — each slot
// advancing a random one, so a connection outlives its pending window; a
// FIN ends its connection after the batch and a new connection takes its
// place; every 1024 packets one VIP's pool gains or loses a DIP. With
// advance set, AdvanceTo runs the runtime up to each batch's instant before
// the batch; without, only the poll each frame makes does.
func lifeScript(t *testing.T, seed int64, advance bool) ([]lifeOutcome, Stats) {
	const (
		tableN   = 20_000
		window   = 1024
		resident = tableN*8/10 - window
		packets  = 64 * 1024
	)
	sw := lifeSwitch(t, tableN)
	defer sw.Close()
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
	return out, st
}

// TestAdvanceToMatchesFramePoll is the differential test at the facade: the
// same script driven with AdvanceTo per batch and with the per-frame poll
// alone yields the same (Verdict, DIP, Version) for every packet and the
// same counters. The runtime's step horizon moves when background work is
// executed within a span no packet arrives in — never what a packet sees.
func TestAdvanceToMatchesFramePoll(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			polled, polledStats := lifeScript(t, seed, false)
			driven, drivenStats := lifeScript(t, seed, true)
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

// TestConnLifecycleZeroAlloc: on a warmed switch, a whole connection
// lifecycle — SYNs miss and are learned, the runtime flushes the filter and
// installs them, their next packets hit ConnTable, EndConnection deletes
// them — allocates nothing: learn events travel by value through the
// filter's reused buffers and the insert-queue ring, shadows live by value
// in a slab whose slots are reused, and the tuple is hashed in the pipeline
// only.
func TestConnLifecycleZeroAlloc(t *testing.T) {
	sw := lifeSwitch(t, 20_000)
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
		for j := range tuples {
			sw.EndConnection(now, tuples[j])
		}
	}
	for i := 0; i < 8; i++ { // grow the filter's buffers, the ring, the map
		cycle()
	}
	hits, learned = 0, 0
	const runs = 50
	allocs := testing.AllocsPerRun(runs, cycle)
	if want := (runs + 1) * lifeBatch; learned != want || hits != want {
		t.Fatalf("%d learned, %d hits over %d lifecycles: the cycle is not the one intended", learned, hits, want)
	}
	if st := sw.Stats(); st.Connections != 0 || sw.PendingWork() != 0 {
		t.Fatalf("switch not back at rest: %d connections, %d pending", st.Connections, sw.PendingWork())
	}
	if allocs != 0 {
		t.Fatalf("a %d-connection lifecycle allocated %.1f objects, want 0", lifeBatch, allocs)
	}
}
