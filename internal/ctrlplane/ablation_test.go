package ctrlplane

import (
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// TestFailoverAblation runs ten fail/recover cycles through the
// version-based path (a pool update dropping the DIP, then one re-adding
// it), with fresh connections
// arriving during each failure window: every cycle consumes versions, and
// no connection moves, not even one whose DIP later left the pool: its
// ConnTable entry keeps the version it was learned under.
func TestFailoverAblation(t *testing.T) {
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
	send := func(now simtime.Time, i int, syn bool) (res dataplane.Result) {
		flags := netproto.FlagACK
		if syn {
			flags = netproto.FlagSYN
		}
		processFrame(cp, now, frameOf(&netproto.Packet{Tuple: tupleN(i), TCPFlags: flags}), &res)
		return res
	}
	// Establish a base population.
	first := map[int]dataplane.DIP{}
	for i := 0; i < 300; i++ {
		first[i] = send(simtime.Time(i)*1000, i, true).DIP
	}
	now := ms(10)
	next := 300
	for cycle := 0; cycle < 10; cycle++ {
		victim := dips[cycle%len(dips)]
		cp.Advance(now)
		pool, _ := cp.TargetPool(vip)
		if err := cp.RequestUpdate(now, vip, slices.DeleteFunc(pool, func(d dataplane.DIP) bool { return d == victim })); err != nil {
			t.Fatal(err)
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
		for k := 0; k < 30; k++ {
			first[next] = send(now, next, true).DIP
			next++
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
		cp.Advance(now)
		pool, _ = cp.TargetPool(vip)
		if err := cp.RequestUpdate(now, vip, append(pool, victim)); err != nil {
			t.Fatal(err)
		}
		now = now.Add(simtime.Duration(20 * simtime.Millisecond))
	}
	cp.Advance(now.Add(simtime.Duration(simtime.Second)))
	moved := 0
	for i := 0; i < next; i++ {
		res := send(now.Add(simtime.Duration(2*simtime.Second)), i, false)
		if res.Verdict != dataplane.VerdictForward {
			t.Fatalf("connection %d: verdict %v", i, res.Verdict)
		}
		if res.DIP != first[i] {
			moved++
		}
	}
	m := cp.Metrics()
	if m.VersionAllocs+m.VersionReuses == 0 {
		t.Fatal("no versions consumed (updates did not run)")
	}
	if moved != 0 {
		t.Fatalf("%d surviving connections moved", moved)
	}
}
