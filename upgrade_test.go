package silkroad

import (
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// upgradeLog is an upgrade fleet's tracer: it records every event the
// rolling reconciler and the upgrader emit and calls hook, if set, on each
// one as it is emitted, under the cluster lock.
type upgradeLog struct {
	events []telemetry.Event
	hook   func(telemetry.Event)
}

func (*upgradeLog) RegisterVIP(int, telemetry.VIPKey) *telemetry.VIPSeries { return nil }

func (l *upgradeLog) Trace(e telemetry.Event) {
	l.events = append(l.events, e)
	if l.hook != nil {
		l.hook(e)
	}
}

// members returns the member of every recorded event with op and step, in
// order.
func (l *upgradeLog) members(op string, step telemetry.ReconcileStep) []int {
	var out []int
	for _, e := range l.events {
		if e.Op == op && e.ReconcileStep == step {
			out = append(out, e.Member)
		}
	}
	return out
}

// upgradeFleet builds an n-member fleet with flows [0,flows) established
// from time 0 and installed by 50 ms, when its tests attach an upgrade. The
// fleet traces into the returned log, and so does the upgrade.
func upgradeFleet(t *testing.T, n, flows int) (*Cluster, *upgradeLog) {
	t.Helper()
	log := &upgradeLog{}
	c := newTracedFleet(t, n, 1, log)
	establish(t, c, 0, flows, 0)
	c.AdvanceTo(msAt(50))
	return c, log
}

// startUpgrade attaches a rolling upgrade of every member at 50 ms.
func startUpgrade(t *testing.T, c *Cluster, cfg UpgradeConfig) *Upgrader {
	t.Helper()
	u, err := c.StartUpgrade(msAt(50), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// stepUpgrade moves c to its next deadline and returns that instant.
func stepUpgrade(t *testing.T, c *Cluster, u *Upgrader) Time {
	t.Helper()
	next, ok := c.NextEventTime()
	if !ok {
		t.Fatalf("fleet idle before the rollout finished: phases %v", phases(c, u))
	}
	c.AdvanceTo(next)
	return next
}

// finishUpgrade steps c from deadline to deadline until u is done.
func finishUpgrade(t *testing.T, c *Cluster, u *Upgrader) {
	t.Helper()
	for i := 0; !u.Done(); i++ {
		if i > 100000 {
			t.Fatalf("rollout never finished: phases %v", phases(c, u))
		}
		stepUpgrade(t, c, u)
	}
}

func phases(c *Cluster, u *Upgrader) []UpgradePhase {
	var out []UpgradePhase
	for m := 0; m < c.Switches(); m++ {
		out = append(out, u.Phase(m))
	}
	return out
}

// TestClusterUpgradeRollsWholeFleet: a clean rollout upgrades every member,
// one at a time in ascending order, with no rollback.
func TestClusterUpgradeRollsWholeFleet(t *testing.T) {
	c, log := upgradeFleet(t, 3, 300)
	u := startUpgrade(t, c, UpgradeConfig{})
	finishUpgrade(t, c, u)
	if got := log.members("upgrade-swap", telemetry.ReconcileApply); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("members taken down in order %v, want [0 1 2]", got)
	}
	if got := log.members("upgrade-done", telemetry.ReconcileApply); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("members done in order %v, want [0 1 2]", got)
	}
	for m := 0; m < 3; m++ {
		if u.Phase(m) != UpgradeDone {
			t.Fatalf("member %d phase %v, want done", m, u.Phase(m))
		}
	}
	if u.Rollbacks != 0 || len(u.Failed()) != 0 {
		t.Fatalf("clean rollout: %d rollbacks, failed %v", u.Rollbacks, u.Failed())
	}
}

// TestClusterUpgradeRollsBackStalledDrain: member 1's insertion CPU is
// stalled for longer than member 0's every attempt, so each of member 0's
// drains stops moving (its imports cannot install, and a transfer cuts over
// only once its receivers are quiet). Each stall rolls the drain back, and
// once its retries run out member 0 is skipped: still in service, never
// taken down. Member 1, a donor whose CPU a drain does not need, rolls
// normally.
func TestClusterUpgradeRollsBackStalledDrain(t *testing.T) {
	c, log := upgradeFleet(t, 2, 300)
	c.Switch(1).Engine().StallCPU(msAt(50), 0, 5*Second)
	u := startUpgrade(t, c, UpgradeConfig{StallTimeout: 300 * Millisecond, MaxRetries: 2})
	finishUpgrade(t, c, u)
	if got := log.members("upgrade-drain", telemetry.ReconcileRollback); !slices.Equal(got, []int{0, 0, 0}) {
		t.Fatalf("drain rollbacks by member %v, want member 0's three attempts", got)
	}
	if u.Rollbacks != 3 {
		t.Fatalf("Rollbacks = %d, want 3", u.Rollbacks)
	}
	if got := log.members("upgrade-swap", telemetry.ReconcileApply); !slices.Equal(got, []int{1}) {
		t.Fatalf("members taken down %v, want only member 1", got)
	}
	if !c.Alive(0) || u.Phase(0) != UpgradeFailed {
		t.Fatalf("stalled member: alive %v, phase %v; want in service and failed", c.Alive(0), u.Phase(0))
	}
	if u.Phase(1) != UpgradeDone {
		t.Fatalf("healthy member phase %v, want done", u.Phase(1))
	}
	if got := u.Failed(); !slices.Equal(got, []int{0}) {
		t.Fatalf("Failed() = %v, want [0]", got)
	}
}

// TestClusterUpgradeWaitsForWarmGate: member 1 loses one of its two VIPs
// right after the swap's re-announce, so it is cold when its warm timeout
// expires. The upgrader re-announces it again, which installs the missing
// VIP beside the one it kept, and only then does it pass the warm gate and
// rejoin.
func TestClusterUpgradeWaitsForWarmGate(t *testing.T) {
	c, log := upgradeFleet(t, 2, 300)
	second := NewVIP("20.0.0.2", 80, TCP)
	spec := fleetSpec(8)
	spec.VIPs = append(spec.VIPs, VIPSpec{VIP: second.String(), Pool: spec.VIPs[0].Pool})
	if _, err := c.Apply(msAt(50), spec); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(50))
	if !c.Converged() {
		t.Fatal("the two-VIP spec did not converge")
	}
	var swappedAt, rejoinedAt Time
	log.hook = func(e telemetry.Event) {
		if e.Member != 1 {
			return
		}
		switch e.Op {
		case "upgrade-swap":
			// The hook runs under the cluster lock: reach the restored
			// member directly.
			swappedAt = e.Now
			if err := c.sws[1].eng.RemoveVIP(e.Now, second); err != nil {
				t.Error(err)
			}
		case "upgrade-done":
			rejoinedAt = e.Now
		}
	}
	cfg := UpgradeConfig{WarmTimeout: 200 * Millisecond}
	u := startUpgrade(t, c, cfg)
	finishUpgrade(t, c, u)
	if u.Phase(0) != UpgradeDone || u.Phase(1) != UpgradeDone {
		t.Fatalf("phases %v, want both done", phases(c, u))
	}
	if u.Rollbacks != 0 {
		t.Fatalf("Rollbacks = %d, want 0: a cold member is re-announced, not rolled back", u.Rollbacks)
	}
	if rejoinedAt.Before(swappedAt.Add(cfg.WarmTimeout)) {
		t.Fatalf("member 1 swapped at %v and done at %v, before its warm timeout", swappedAt, rejoinedAt)
	}
	if !c.Switch(1).Engine().Dataplane(0).HasVIP(second) {
		t.Fatal("member 1 rejoined without its missing VIP re-announced")
	}
	if !slices.Contains(c.spray, 1) {
		t.Fatal("member 1 holds no spray bucket after its rejoin")
	}
}

// TestClusterUpgradeRetriesCancelledDrain: failing member 2, a receiver of
// member 0's drain, cancels the drain. The upgrader reads that as a
// rollback, not a finished drain: it retries after a backoff and drains
// member 0 to the one survivor, which it then upgrades.
func TestClusterUpgradeRetriesCancelledDrain(t *testing.T) {
	c, log := upgradeFleet(t, 3, 1200)
	u := startUpgrade(t, c, UpgradeConfig{})
	for {
		now := stepUpgrade(t, c, u)
		if active, moved := xferProgress(c); u.Phase(0) == UpgradeDraining && active && moved > 0 {
			if err := c.FailSwitch(now, 2); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	finishUpgrade(t, c, u)
	if got := log.members("upgrade-drain", telemetry.ReconcileRollback); !slices.Equal(got, []int{0}) {
		t.Fatalf("drain rollbacks by member %v, want one of member 0's", got)
	}
	if u.Rollbacks < 1 {
		t.Fatalf("Rollbacks = %d, want at least 1", u.Rollbacks)
	}
	if u.Phase(0) != UpgradeDone {
		t.Fatalf("member 0 phase %v, want done after a retried drain", u.Phase(0))
	}
	if u.Phase(2) != UpgradeFailed {
		t.Fatalf("failed member 2 phase %v, want failed", u.Phase(2))
	}
}

// TestClusterUpgradeRetriesCancelledRejoin: failing member 1, a donor of
// member 0's rejoin, cancels the rejoin. The upgrader rolls it back and
// rejoins again, so member 0 is done only once a rejoin has cut over: every
// bucket it first owned points at it again.
func TestClusterUpgradeRetriesCancelledRejoin(t *testing.T) {
	c, log := upgradeFleet(t, 3, 1200)
	u := startUpgrade(t, c, UpgradeConfig{})
	log.hook = func(e telemetry.Event) {
		if e.Member != 0 || e.Op != "upgrade-done" {
			return
		}
		for b, m := range c.spray {
			if c.origin[b] == 0 && m != 0 {
				t.Errorf("member 0 done at %v with its bucket %d on member %d", e.Now, b, m)
				return
			}
		}
	}
	for {
		now := stepUpgrade(t, c, u)
		if active, moved := xferProgress(c); u.Phase(0) == UpgradeRejoining && active && moved > 0 {
			if err := c.FailSwitch(now, 1); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	finishUpgrade(t, c, u)
	if got := log.members("upgrade-rejoin", telemetry.ReconcileRollback); !slices.Equal(got, []int{0}) {
		t.Fatalf("rejoin rollbacks by member %v, want one of member 0's", got)
	}
	if u.Rollbacks < 1 {
		t.Fatalf("Rollbacks = %d, want at least 1", u.Rollbacks)
	}
	if got := log.members("upgrade-done", telemetry.ReconcileApply); !slices.Contains(got, 0) {
		t.Fatalf("member 0 never done (phases %v)", phases(c, u))
	}
}
