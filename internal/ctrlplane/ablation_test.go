package ctrlplane

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// failoverAblation runs the same failure/recovery churn through both §7
// strategies and reports (versions consumed, connections moved).
func failoverAblation(t testing.TB, resilient bool) (versions uint64, moved int) {
	dcfg := dataplane.DefaultConfig(100000)
	sw, err := dataplane.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := New(sw, DefaultConfig())
	vip := testVIP()
	dips := poolN(8)
	if err := cp.AddVIP(0, vip, dips, 0); err != nil {
		t.Fatal(err)
	}
	if resilient {
		if err := cp.EnableResilientHashing(vip, 64); err != nil {
			t.Fatal(err)
		}
	}
	send := func(now simtime.Time, i int, syn bool) (res dataplane.Result) {
		flags := netproto.FlagACK
		if syn {
			flags = netproto.FlagSYN
		}
		cp.ProcessFrameInto(now, frameOf(&netproto.Packet{Tuple: tupleN(i), TCPFlags: flags}), &res)
		return res
	}
	// Establish a base population.
	first := map[int]dataplane.DIP{}
	for i := 0; i < 300; i++ {
		first[i] = send(simtime.Time(i)*1000, i, true).DIP
	}
	now := ms(10)
	next := 300
	// Ten failure/recovery cycles with fresh connections arriving during
	// each failure window.
	for cycle := 0; cycle < 10; cycle++ {
		victim := dips[cycle%len(dips)]
		cp.Advance(now)
		if err := cp.FailDIP(now, vip, victim); err != nil {
			t.Fatal(err)
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
		for k := 0; k < 30; k++ {
			first[next] = send(now, next, true).DIP
			next++
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
		cp.Advance(now)
		if err := cp.RecoverDIP(now, vip, victim); err != nil {
			t.Fatal(err)
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
	}
	cp.Advance(now.Add(simtime.Duration(simtime.Second)))
	// Measure movement, excluding connections whose own DIP failed.
	failedEver := map[dataplane.DIP]bool{}
	for c := 0; c < 10; c++ {
		failedEver[dips[c%len(dips)]] = true
	}
	for i := 0; i < next; i++ {
		res := send(now.Add(simtime.Duration(2*simtime.Second)), i, false)
		if res.Verdict == dataplane.VerdictForward && res.DIP != first[i] && !failedEver[first[i]] {
			moved++
		}
	}
	return cp.Metrics().VersionAllocs + cp.Metrics().VersionReuses, moved
}

// TestFailoverAblation contrasts the strategies: version-based failover
// consumes versions but never moves surviving connections; resilient
// failover consumes zero versions at the cost of bounded recovery moves.
func TestFailoverAblation(t *testing.T) {
	vVer, movedVer := failoverAblation(t, false)
	vRes, movedRes := failoverAblation(t, true)
	if vRes != 0 {
		t.Fatalf("resilient mode consumed %d versions", vRes)
	}
	if vVer == 0 {
		t.Fatal("version mode consumed no versions (updates did not run)")
	}
	if movedVer != 0 {
		t.Fatalf("version mode moved %d surviving connections", movedVer)
	}
	// Resilient mode may move connections established during failure
	// windows back at recovery; it must stay bounded (those windows held
	// 30 conns each, ~1/8 on the failed member's buckets).
	if movedRes > 100 {
		t.Fatalf("resilient mode moved %d connections (unbounded?)", movedRes)
	}
	t.Logf("ablation: version-based %d versions / %d moved; resilient %d versions / %d moved",
		vVer, movedVer, vRes, movedRes)
}

// BenchmarkAblationFailover reports both strategies' costs as metrics.
func BenchmarkAblationFailover(b *testing.B) {
	for _, mode := range []struct {
		name      string
		resilient bool
	}{{"version-based", false}, {"resilient-hashing", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var v uint64
			var moved int
			for i := 0; i < b.N; i++ {
				v, moved = failoverAblation(b, mode.resilient)
			}
			b.ReportMetric(float64(v), "versions")
			b.ReportMetric(float64(moved), "moved-conns")
		})
	}
}
