package health

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

func ctrlplaneNew(sw *dataplane.Switch) *ctrlplane.ControlPlane {
	return ctrlplane.New(sw, ctrlplane.DefaultConfig())
}

// cpPool drives a control plane's pool the way a switch's AddDIP and
// RemoveDIP do: one update of the target pool, the DIP appended or dropped.
type cpPool struct{ *ctrlplane.ControlPlane }

func (p cpPool) AddDIP(now simtime.Time, v dataplane.VIP, d dataplane.DIP) error {
	pool, err := p.TargetPool(v)
	if err != nil {
		return err
	}
	return p.RequestUpdate(now, v, append(pool, d))
}

func (p cpPool) RemoveDIP(now simtime.Time, v dataplane.VIP, d dataplane.DIP) error {
	pool, err := p.TargetPool(v)
	if err != nil {
		return err
	}
	return p.RequestUpdate(now, v, slices.DeleteFunc(pool, func(x dataplane.DIP) bool { return x == d }))
}

type fakeMgr struct {
	added, removed []dataplane.DIP
	fail           bool
}

func (m *fakeMgr) AddDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error {
	if m.fail {
		return errFake
	}
	m.added = append(m.added, dip)
	return nil
}

func (m *fakeMgr) RemoveDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error {
	if m.fail {
		return errFake
	}
	m.removed = append(m.removed, dip)
	return nil
}

var errFake = errFakeT{}

type errFakeT struct{}

func (errFakeT) Error() string { return "fake" }

func vip() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func dip(i int) dataplane.DIP {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 20)
}

func sec(n int) simtime.Time { return simtime.Time(n) * simtime.Time(simtime.Second) }

func TestFailoverAfterThresholdMisses(t *testing.T) {
	mgr := &fakeMgr{}
	alive := map[dataplane.DIP]bool{dip(1): true, dip(2): true}
	c := New(DefaultConfig(), mgr, func(now simtime.Time, d dataplane.DIP) bool { return alive[d] })
	c.Watch(vip(), dip(1))
	c.Watch(vip(), dip(2))

	c.Advance(sec(0))
	if len(mgr.removed) != 0 {
		t.Fatal("healthy DIPs removed")
	}
	// dip(1) dies. Removal requires 3 consecutive misses (30 s at 10 s
	// interval), not one.
	alive[dip(1)] = false
	c.Advance(sec(10))
	c.Advance(sec(20))
	if len(mgr.removed) != 0 {
		t.Fatal("removed before threshold")
	}
	c.Advance(sec(30))
	if len(mgr.removed) != 1 || mgr.removed[0] != dip(1) {
		t.Fatalf("removed = %v", mgr.removed)
	}
	if !c.Down(vip(), dip(1)) || c.Down(vip(), dip(2)) {
		t.Fatal("down-state wrong")
	}
	// Recovery: 2 consecutive successes re-add.
	alive[dip(1)] = true
	c.Advance(sec(40))
	if len(mgr.added) != 0 {
		t.Fatal("re-added before recovery threshold")
	}
	c.Advance(sec(50))
	if len(mgr.added) != 1 || mgr.added[0] != dip(1) {
		t.Fatalf("added = %v", mgr.added)
	}
	m := c.Metrics()
	if m.Failovers != 1 || m.Recoveries != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestFlappingDoesNotTriggerRemoval(t *testing.T) {
	mgr := &fakeMgr{}
	up := true
	c := New(DefaultConfig(), mgr, func(simtime.Time, dataplane.DIP) bool {
		up = !up // alternate miss/success: misses never run 3 deep
		return up
	})
	c.Watch(vip(), dip(1))
	for s := 0; s <= 300; s += 10 {
		c.Advance(sec(s))
	}
	if len(mgr.removed) != 0 {
		t.Fatal("flapping DIP removed despite non-consecutive misses")
	}
}

func TestBandwidthMatchesPaper(t *testing.T) {
	// §7: 10K DIPs every 10 s with 100 B packets ~ 800 Kbps.
	got := DefaultConfig().BandwidthBps(10000)
	if got != 800_000 {
		t.Fatalf("probe bandwidth = %.0f bps, want 800000", got)
	}
}

func TestCatchUpRounds(t *testing.T) {
	mgr := &fakeMgr{}
	c := New(DefaultConfig(), mgr, func(simtime.Time, dataplane.DIP) bool { return false })
	c.Watch(vip(), dip(1))
	// A single Advance far in the future must run all missed rounds, so
	// the failure threshold is crossed.
	c.Advance(sec(0))
	c.Advance(sec(100))
	if len(mgr.removed) != 1 {
		t.Fatalf("catch-up rounds did not fire: removed=%v", mgr.removed)
	}
	if c.Metrics().ProbesSent < 3 {
		t.Fatalf("ProbesSent = %d", c.Metrics().ProbesSent)
	}
}

func TestUnwatchStopsProbing(t *testing.T) {
	mgr := &fakeMgr{}
	c := New(DefaultConfig(), mgr, func(simtime.Time, dataplane.DIP) bool { return false })
	c.Watch(vip(), dip(1))
	c.Unwatch(vip(), dip(1))
	if c.Watching() != 0 {
		t.Fatal("Unwatch failed")
	}
	c.Advance(sec(100))
	if len(mgr.removed) != 0 {
		t.Fatal("unwatched DIP removed")
	}
	if _, ok := c.NextEventTime(); ok {
		t.Fatal("no targets but an event scheduled")
	}
}

func TestManagerErrorsCounted(t *testing.T) {
	mgr := &fakeMgr{fail: true}
	c := New(DefaultConfig(), mgr, func(simtime.Time, dataplane.DIP) bool { return false })
	c.Watch(vip(), dip(1))
	for s := 0; s <= 60; s += 10 {
		c.Advance(sec(s))
	}
	if c.Metrics().ManagerErrs == 0 {
		t.Fatal("manager errors not counted")
	}
	// The DIP stays up in checker state so removal retries.
	if c.Down(vip(), dip(1)) {
		t.Fatal("DIP marked down despite failed removal")
	}
}

func TestWatchIdempotent(t *testing.T) {
	mgr := &fakeMgr{}
	c := New(DefaultConfig(), mgr, func(simtime.Time, dataplane.DIP) bool { return true })
	c.Watch(vip(), dip(1))
	c.Watch(vip(), dip(1))
	if c.Watching() != 1 {
		t.Fatalf("Watching = %d", c.Watching())
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(Config{}, &fakeMgr{}, func(simtime.Time, dataplane.DIP) bool { return true }) },
		func() { New(DefaultConfig(), nil, func(simtime.Time, dataplane.DIP) bool { return true }) },
		func() { New(DefaultConfig(), &fakeMgr{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad New did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestEndToEndWithControlPlane wires the checker to a real switch: a DIP
// failure drives a PCC-preserving pool update.
func TestEndToEndWithControlPlane(t *testing.T) {
	sw, err := dataplane.New(dataplane.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	cp := ctrlplaneNew(sw)
	pool := []dataplane.DIP{dip(1), dip(2), dip(3)}
	if err := cp.AddVIP(0, vip(), pool, 0); err != nil {
		t.Fatal(err)
	}
	alive := map[dataplane.DIP]bool{dip(1): true, dip(2): true, dip(3): true}
	c := New(DefaultConfig(), cpPool{cp}, func(now simtime.Time, d dataplane.DIP) bool { return alive[d] })
	for _, d := range pool {
		c.Watch(vip(), d)
	}
	alive[dip(2)] = false
	for s := 0; s <= 60; s += 10 {
		c.Advance(sec(s))
		cp.Advance(sec(s))
	}
	cur, _ := cp.CurrentPool(vip())
	if len(cur) != 2 {
		t.Fatalf("pool after failover = %v", cur)
	}
	for _, d := range cur {
		if d == dip(2) {
			t.Fatal("failed DIP still in pool")
		}
	}
	// Recovery re-adds it.
	alive[dip(2)] = true
	for s := 70; s <= 120; s += 10 {
		c.Advance(sec(s))
		cp.Advance(sec(s))
	}
	cur, _ = cp.CurrentPool(vip())
	if len(cur) != 3 {
		t.Fatalf("pool after recovery = %v", cur)
	}
}

// TestProbeMayCallBackIntoChecker locks in the unlocked-callback contract:
// a probe that queries the checker (as a fault injector wrapping the probe
// does) must not deadlock.
func TestProbeMayCallBackIntoChecker(t *testing.T) {
	mgr := &fakeMgr{}
	var c *Checker
	c = New(DefaultConfig(), mgr, func(now simtime.Time, d dataplane.DIP) bool {
		// Reentrant reads: these deadlocked when probes ran under c.mu.
		_ = c.Watching()
		_ = c.Down(vip(), d)
		c.Advance(now) // reentrant Advance must be a no-op, not a deadlock
		return false
	})
	c.Watch(vip(), dip(1))
	for s := 0; s <= 30; s += 10 {
		c.Advance(sec(s))
	}
	if len(mgr.removed) != 1 {
		t.Fatalf("removed = %v", mgr.removed)
	}
}

// unwatchMgr unwatches the very target being acted on from inside the
// pool-manager callback, as a control plane tearing down a VIP would.
type unwatchMgr struct {
	c       *Checker
	removed int
}

func (m *unwatchMgr) AddDIP(simtime.Time, dataplane.VIP, dataplane.DIP) error { return nil }

func (m *unwatchMgr) RemoveDIP(now simtime.Time, v dataplane.VIP, d dataplane.DIP) error {
	m.removed++
	m.c.Unwatch(v, d)
	return nil
}

func TestManagerCallbackMayUnwatch(t *testing.T) {
	mgr := &unwatchMgr{}
	c := New(DefaultConfig(), mgr, func(simtime.Time, dataplane.DIP) bool { return false })
	mgr.c = c
	c.Watch(vip(), dip(1))
	c.Watch(vip(), dip(2))
	for s := 0; s <= 60; s += 10 {
		c.Advance(sec(s))
	}
	if mgr.removed != 2 {
		t.Fatalf("removed = %d, want 2", mgr.removed)
	}
	if c.Watching() != 0 {
		t.Fatalf("Watching = %d after callbacks unwatched everything", c.Watching())
	}
	// The post-callback re-lookup must have seen the deletion: Failovers
	// counts only committed state transitions, and both targets were gone
	// before the commit.
	if got := c.Metrics().Failovers; got != 0 {
		t.Fatalf("Failovers = %d, want 0 (targets unwatched mid-callback)", got)
	}
}

// TestProbeOrderDeterministic: rounds visit targets in sorted key order,
// not map order.
type orderMgr struct{ order []dataplane.DIP }

func (m *orderMgr) AddDIP(simtime.Time, dataplane.VIP, dataplane.DIP) error { return nil }
func (m *orderMgr) RemoveDIP(now simtime.Time, v dataplane.VIP, d dataplane.DIP) error {
	m.order = append(m.order, d)
	return nil
}

func TestProbeOrderDeterministic(t *testing.T) {
	mgr := &orderMgr{}
	c := New(DefaultConfig(), mgr, func(simtime.Time, dataplane.DIP) bool { return false })
	for i := 9; i >= 1; i-- { // watch in reverse order
		c.Watch(vip(), dip(i))
	}
	for s := 0; s <= 30; s += 10 {
		c.Advance(sec(s))
	}
	if len(mgr.order) != 9 {
		t.Fatalf("removed %d targets, want 9", len(mgr.order))
	}
	for i, d := range mgr.order {
		if d != dip(i+1) {
			t.Fatalf("removal order[%d] = %v, want %v", i, d, dip(i+1))
		}
	}
}
