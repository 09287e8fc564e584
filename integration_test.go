package silkroad

// Integration tests across the dataplane/ctrlplane boundary and the
// paper's system-level claims that no single package can assert alone.

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"repro/internal/health"
	"repro/internal/netproto"
)

// TestChurnInvariants runs minutes of virtual time with arrivals, pool
// updates and terminations interleaved, then checks the bookkeeping
// invariants that PCC rests on: software shadows match hardware entries,
// version refcounts drain to zero, and no update is left dangling.
func TestChurnInvariants(t *testing.T) {
	cfg := Defaults(50000)
	// Aging reclaims zombie entries: connections that terminate while
	// still pending install afterwards (the CPU cannot know) and must be
	// swept out by idle timeout, as on the real switch.
	cfg.Controlplane.AgingTimeout = Duration(30 * Second)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	basePool := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20", "10.0.0.4:20",
		"10.0.0.5:20", "10.0.0.6:20", "10.0.0.7:20", "10.0.0.8:20")
	if err := sw.AddVIP(0, vip, basePool); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	now := Time(0)
	live := map[int]bool{}
	next := 0
	tuple := func(i int) FiveTuple {
		return FiveTuple{
			Src:     netip.AddrFrom4([4]byte{9, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     vip.Addr,
			SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: TCP,
		}
	}
	firstDIP := map[int]DIP{}
	// DIPs that have been taken out of service at some point: connections
	// pinned to them are dead by server action, and §4.2's version reuse
	// may legitimately rebind their slot — the oracle exempts them.
	removedEver := map[DIP]bool{}
	for step := 0; step < 6000; step++ {
		now = now.Add(Duration(rng.Intn(2000)+1) * Microsecond)
		switch r := rng.Float64(); {
		case r < 0.45: // new connection
			res := process(sw, now, &Packet{Tuple: tuple(next), TCPFlags: netproto.FlagSYN})
			if res.Verdict.String() == "forward" {
				firstDIP[next] = res.DIP
				live[next] = true
			}
			next++
		case r < 0.80: // packet on an existing connection: PCC check
			if len(live) == 0 {
				continue
			}
			for i := range live {
				res := process(sw, now, &Packet{Tuple: tuple(i), TCPFlags: netproto.FlagACK})
				if res.Verdict.String() == "forward" && res.DIP != firstDIP[i] {
					if removedEver[firstDIP[i]] {
						// Server went down; the connection re-binds.
						firstDIP[i] = res.DIP
					} else {
						t.Fatalf("step %d: conn %d moved %v -> %v", step, i, firstDIP[i], res.DIP)
					}
				}
				break
			}
		case r < 0.92: // end a connection
			for i := range live {
				sw.EndConnection(now, tuple(i))
				delete(live, i)
				break
			}
		default: // pool update: remove or re-add a random DIP
			cur, _ := sw.CurrentPool(vip)
			if len(cur) > 4 && rng.Intn(2) == 0 {
				victim := cur[rng.Intn(len(cur))]
				sw.RemoveDIP(now, vip, victim)
				removedEver[victim] = true
			} else if len(cur) < len(basePool) {
				for _, d := range basePool {
					found := false
					for _, c := range cur {
						if c == d {
							found = true
							break
						}
					}
					if !found {
						sw.AddDIP(now, vip, d)
						break
					}
				}
			}
		}
	}
	// Drain everything; the aging sweeps reclaim zombies.
	now = now.Add(Duration(Second))
	sw.AdvanceTo(now)
	for i := range live {
		sw.EndConnection(now, tuple(i))
	}
	for k := 0; k < 8; k++ {
		now = now.Add(Duration(15 * Second))
		sw.AdvanceTo(now)
	}

	st := sw.Stats()
	if st.Controlplane.UpdatesRequested == 0 {
		t.Fatal("no updates exercised")
	}
	if st.Connections != 0 {
		t.Fatalf("%d shadows leaked after all conns ended", st.Connections)
	}
	if got := sw.Dataplane().ConnTable().Len(); got != 0 {
		t.Fatalf("%d hardware entries leaked", got)
	}
	// All versions but the current one must have retired.
	vers, _ := sw.Dataplane().PoolVersions(vip)
	if len(vers) != 1 {
		t.Fatalf("versions not retired: %v", vers)
	}
}

// TestTwoSwitchesConsistentMapping verifies the §5.3/§7 property that lets
// ECMP spray one VIP's traffic over many SilkRoad switches and survive a
// switch failure for new connections: switches with the same configuration
// and the same pool history map any given new connection identically.
func TestTwoSwitchesConsistentMapping(t *testing.T) {
	mk := func() *Switch {
		sw, err := NewSwitch(Defaults(10000))
		if err != nil {
			t.Fatal(err)
		}
		vip := NewVIP("20.0.0.1", 80, TCP)
		if err := sw.AddVIP(0, vip, Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		tup := FiveTuple{
			Src:     netip.AddrFrom4([4]byte{8, 8, byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("20.0.0.1"),
			SrcPort: uint16(2000 + i), DstPort: 80, Proto: TCP,
		}
		ra := process(a, Time(i), &Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
		rb := process(b, Time(i), &Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
		if ra.DIP != rb.DIP {
			t.Fatalf("conn %d maps to %v on switch A but %v on switch B", i, ra.DIP, rb.DIP)
		}
	}
}

// TestSwitchFailureRecovery models §7's switch-failure discussion: after a
// failover, connections that used the latest pool version keep their DIP
// on the replacement switch (same VIPTable); connections pinned to an
// older version may break — exactly the SLB-failure equivalence the paper
// concedes.
func TestSwitchFailureRecovery(t *testing.T) {
	vip := NewVIP("20.0.0.1", 80, TCP)
	pool := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20", "10.0.0.4:20")
	primary, _ := NewSwitch(Defaults(10000))
	primary.AddVIP(0, vip, pool)

	// Establish connections on the latest version.
	tuples := make([]FiveTuple, 100)
	dips := make([]DIP, 100)
	for i := range tuples {
		tuples[i] = FiveTuple{
			Src:     netip.AddrFrom4([4]byte{7, 7, 0, byte(i)}),
			Dst:     vip.Addr,
			SrcPort: uint16(3000 + i), DstPort: 80, Proto: TCP,
		}
		dips[i] = process(primary, Time(i), &Packet{Tuple: tuples[i], TCPFlags: netproto.FlagSYN}).DIP
	}
	// Failover: a standby switch with the same (latest) VIPTable state.
	standby, _ := NewSwitch(Defaults(10000))
	standby.AddVIP(0, vip, pool)
	broken := 0
	for i := range tuples {
		res := process(standby, Time(1000+i), &Packet{Tuple: tuples[i], TCPFlags: netproto.FlagACK})
		if res.DIP != dips[i] {
			broken++
		}
	}
	if broken != 0 {
		t.Fatalf("%d latest-version connections broke across failover, want 0", broken)
	}
}

// TestDecodeNeverPanics fuzzes the frame parser with random bytes.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var f Frame
	for i := 0; i < 20000; i++ {
		n := rng.Intn(128)
		buf := make([]byte, n)
		rng.Read(buf)
		if n > 0 && rng.Intn(2) == 0 {
			buf[0] = byte(4 << 4) // bias towards plausible IPv4/IPv6 starts
			if rng.Intn(2) == 0 {
				buf[0] = byte(6 << 4)
			}
		}
		_ = ParseFrame(buf, &f) // must not panic
	}
}

// TestOverflowDegradesGracefully fills ConnTable past capacity: the switch
// must keep forwarding (unpinned connections resolve through VIPTable) and
// count overflows instead of failing.
func TestOverflowDegradesGracefully(t *testing.T) {
	cfg := Defaults(256) // tiny ConnTable
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	sw.AddVIP(0, vip, Pool("10.0.0.1:20", "10.0.0.2:20"))
	now := Time(0)
	for i := 0; i < 3000; i++ {
		tup := FiveTuple{
			Src:     netip.AddrFrom4([4]byte{6, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     vip.Addr,
			SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: TCP,
		}
		res := process(sw, now, &Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
		if res.Verdict.String() != "forward" && res.Verdict.String() != "redirect-syn-conntable" {
			t.Fatalf("packet %d verdict %v", i, res.Verdict)
		}
		now = now.Add(20 * Microsecond)
	}
	sw.AdvanceTo(now.Add(Duration(Second)))
	st := sw.Stats()
	if st.Controlplane.Overflows == 0 {
		t.Fatal("3000 conns into a 256-entry table produced no overflows")
	}
	if st.Controlplane.Inserted == 0 {
		t.Fatal("nothing inserted at all")
	}
}

// TestFacadeHealthChecker drives the §7 failure-handling loop through the
// public API: a dead backend is detected, removed with PCC, and re-added
// on recovery.
func TestFacadeHealthChecker(t *testing.T) {
	sw, _ := NewSwitch(Defaults(10000))
	vip := NewVIP("20.0.0.1", 80, TCP)
	pool := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")
	sw.AddVIP(0, vip, pool)
	alive := map[DIP]bool{pool[0]: true, pool[1]: true, pool[2]: true}
	hc := sw.NewHealthChecker(health.DefaultConfig(), func(now Time, d DIP) bool { return alive[d] })
	for _, d := range pool {
		hc.Watch(vip, d)
	}
	alive[pool[1]] = false
	for s := 0; s <= 60; s += 10 {
		now := Time(s) * Time(Second)
		sw.AdvanceTo(now)
	}
	cur, _ := sw.CurrentPool(vip)
	if len(cur) != 2 {
		t.Fatalf("pool after health failover = %v", cur)
	}
	if hc.Metrics().Failovers != 1 {
		t.Fatalf("Failovers = %d", hc.Metrics().Failovers)
	}
	alive[pool[1]] = true
	for s := 70; s <= 120; s += 10 {
		now := Time(s) * Time(Second)
		sw.AdvanceTo(now)
	}
	cur, _ = sw.CurrentPool(vip)
	if len(cur) != 3 {
		t.Fatalf("pool after recovery = %v", cur)
	}
}

// TestHealthRoundsUnderOneLongAdvanceTo pins the registered checker's
// schedule to its deadlines, not to how the runtime steps: one AdvanceTo
// across seven probe rounds runs the same rounds, at the same instants, as
// stepping to each deadline in turn — so a dead backend fails over inside
// the first catch-up.
func TestHealthRoundsUnderOneLongAdvanceTo(t *testing.T) {
	type probe struct {
		at  Time
		dip DIP
	}
	run := func(step Duration) ([]probe, health.Metrics, int) {
		sw, _ := NewSwitch(Defaults(10000))
		vip := NewVIP("20.0.0.1", 80, TCP)
		pool := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")
		sw.AddVIP(0, vip, pool)
		var probes []probe
		hc := sw.NewHealthChecker(health.DefaultConfig(), func(now Time, d DIP) bool {
			probes = append(probes, probe{now, d})
			return d != pool[1]
		})
		for _, d := range pool {
			hc.Watch(vip, d)
		}
		end := Time(60 * Second)
		for now := Time(step); now <= end; now += Time(step) {
			sw.AdvanceTo(now)
		}
		cur, _ := sw.CurrentPool(vip)
		return probes, hc.Metrics(), len(cur)
	}
	stepped, sm, spool := run(Duration(10 * Second)) // one round per AdvanceTo
	long, lm, lpool := run(Duration(60 * Second))    // all seven under one
	if want := uint64(7 * 3); sm.ProbesSent != want || lm.ProbesSent != want {
		t.Fatalf("ProbesSent stepped=%d long=%d, want %d", sm.ProbesSent, lm.ProbesSent, want)
	}
	if !reflect.DeepEqual(stepped, long) {
		t.Fatalf("probe schedule differs:\nstepped %v\nlong    %v", stepped, long)
	}
	if sm != lm || lm.Failovers != 1 {
		t.Fatalf("metrics stepped=%+v long=%+v, want equal with one failover", sm, lm)
	}
	if spool != 2 || lpool != 2 {
		t.Fatalf("pool size stepped=%d long=%d, want 2", spool, lpool)
	}
}

// TestConcurrentFacade hammers the switch from several goroutines; run
// with -race this validates the facade's serialization claim.
func TestConcurrentFacade(t *testing.T) {
	sw, _ := NewSwitch(Defaults(50000))
	vip := NewVIP("20.0.0.1", 80, TCP)
	sw.AddVIP(0, vip, Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tup := FiveTuple{
					Src:     netip.AddrFrom4([4]byte{byte(g + 1), 0, byte(i >> 8), byte(i)}),
					Dst:     vip.Addr,
					SrcPort: uint16(1000*g + i), DstPort: 80, Proto: TCP,
				}
				process(sw, Time(i)*1000, &Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
				if i%50 == 0 {
					sw.Stats()
					sw.CurrentPool(vip)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			sw.RemoveDIP(Time(i)*100_000, vip, AddrPort("10.0.0.3:20"))
			sw.AdvanceTo(Time(i)*100_000 + 50_000)
			sw.AddDIP(Time(i)*100_000+60_000, vip, AddrPort("10.0.0.3:20"))
		}
	}()
	wg.Wait()
	if sw.Stats().Dataplane.Packets != 2000 {
		t.Fatalf("packets = %d", sw.Stats().Dataplane.Packets)
	}
}

// TestStatsAccounting cross-checks dataplane and ctrlplane counters.
func TestStatsAccounting(t *testing.T) {
	sw, _ := NewSwitch(Defaults(10000))
	vip := NewVIP("20.0.0.1", 80, TCP)
	sw.AddVIP(0, vip, Pool("10.0.0.1:20"))
	for i := 0; i < 100; i++ {
		tup := FiveTuple{
			Src:     netip.AddrFrom4([4]byte{5, 5, 0, byte(i)}),
			Dst:     vip.Addr,
			SrcPort: uint16(5000 + i), DstPort: 80, Proto: TCP,
		}
		process(sw, Time(i)*1000, &Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
	}
	sw.AdvanceTo(Time(Second))
	st := sw.Stats()
	if st.Dataplane.LearnOffers != 100 {
		t.Fatalf("LearnOffers = %d", st.Dataplane.LearnOffers)
	}
	if st.Controlplane.Inserted != 100 {
		t.Fatalf("Inserted = %d", st.Controlplane.Inserted)
	}
	if st.Connections != 100 {
		t.Fatalf("Connections = %d", st.Connections)
	}
	if got := sw.Dataplane().ConnTable().Len(); got != 100 {
		t.Fatalf("hardware entries = %d", got)
	}
}
