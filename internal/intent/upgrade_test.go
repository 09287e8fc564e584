package intent

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/simtime"
)

// upFleet scripts the UpgradeOps surface: each member's drain and
// rejoin take a fixed number of pumps, one every 100 ms of the fleet's
// timeline; a member's transfers can be wedged (zero progress) and the warm
// gate can demand re-announces.
type upFleet struct {
	n          int
	now        simtime.Time // the fleet's current instant
	drainLeft  map[int]int  // pumps until drain completes
	rejoinLeft map[int]int
	wedged     map[int]bool // transfers never progress
	needWarm   map[int]int  // re-announces required before warm

	xfer      int         // the transferring member, -1 none
	left      map[int]int // drainLeft or rejoinLeft
	moved     uint64
	pumpAt    simtime.Time
	upgraded  []int
	cancels   int
	announces map[int]int
}

func newUpFleet(n int) *upFleet {
	f := &upFleet{
		n: n, xfer: -1,
		drainLeft:  map[int]int{},
		rejoinLeft: map[int]int{},
		wedged:     map[int]bool{},
		needWarm:   map[int]int{},
		announces:  map[int]int{},
	}
	for i := 0; i < n; i++ {
		f.drainLeft[i] = 3
		f.rejoinLeft[i] = 2
	}
	return f
}

func (f *upFleet) Switches() int { return f.n }

func (f *upFleet) begin(now simtime.Time, i int, left map[int]int) {
	f.xfer, f.left, f.moved, f.pumpAt = i, left, 0, now
}

func (f *upFleet) DrainSwitch(now simtime.Time, i int) error {
	f.begin(now, i, f.drainLeft)
	return nil
}

func (f *upFleet) UpgradeSwitch(i int) error {
	f.upgraded = append(f.upgraded, i)
	return nil
}

func (f *upFleet) RestoreSwitch(i int) error { return nil }

func (f *upFleet) Reannounce(now simtime.Time, i int) error {
	f.announces[i]++
	return nil
}

func (f *upFleet) RejoinSwitch(now simtime.Time, i int) error {
	if !f.Warm(i) {
		return ErrNotWarm
	}
	f.begin(now, i, f.rejoinLeft)
	return nil
}

func (f *upFleet) CancelTransfer(simtime.Time) error {
	f.cancels++
	f.xfer = -1
	return nil
}

func (f *upFleet) Transfer() (bool, uint64) { return f.xfer >= 0, f.moved }

func (f *upFleet) Warm(i int) bool { return f.needWarm[i] <= f.announces[i] }

// The fake's transfer pump, the fleet's own source.

func (f *upFleet) NextEventTime() (simtime.Time, bool) { return f.pumpAt, f.xfer >= 0 }

func (f *upFleet) Advance(now simtime.Time) {
	for f.xfer >= 0 && !now.Before(f.pumpAt) {
		f.pumpAt = f.pumpAt.Add(100 * simtime.Millisecond)
		if f.wedged[f.xfer] {
			continue
		}
		f.moved++
		if f.left[f.xfer]--; f.left[f.xfer] <= 0 {
			f.xfer = -1
		}
	}
}

// drive runs the upgrader to completion on the fleet's timeline: the pump
// first, then the upgrader, stepped from deadline to deadline.
func drive(t *testing.T, fleet *upFleet, cfg UpgradeConfig) *Upgrader {
	t.Helper()
	u := NewUpgrader(fleet, func() simtime.Time { return fleet.now }, 0, nil, cfg)
	s := sched.New()
	s.AddSource(fleet)
	s.AddSource(u)
	for i := 0; !u.Done(); i++ {
		next, ok := s.Next()
		if !ok || i > 10000 {
			t.Fatalf("rollout did not finish; phases %v", fleet)
		}
		fleet.now = max(fleet.now, next)
		s.RunUntil(fleet.now)
	}
	return u
}

func TestUpgraderRollsWholeFleet(t *testing.T) {
	fleet := newUpFleet(3)
	u := drive(t, fleet, UpgradeConfig{})
	if got := len(fleet.upgraded); got != 3 {
		t.Fatalf("upgraded %d members, want 3 (%v)", got, fleet.upgraded)
	}
	// One member at a time, in order.
	for i, m := range fleet.upgraded {
		if m != i {
			t.Fatalf("rollout order %v, want ascending", fleet.upgraded)
		}
	}
	for i := 0; i < 3; i++ {
		if u.Phase(i) != UpgradeDone {
			t.Fatalf("member %d phase %v", i, u.Phase(i))
		}
	}
	if u.Rollbacks != 0 {
		t.Fatalf("clean rollout recorded %d rollbacks", u.Rollbacks)
	}
}

func TestUpgraderRollsBackStalledDrain(t *testing.T) {
	fleet := newUpFleet(2)
	fleet.wedged[0] = true
	u := drive(t, fleet, UpgradeConfig{
		StallTimeout: 300 * simtime.Millisecond,
		MaxRetries:   2,
	})
	// Member 0 wedged: its drain was cancelled (rolled back) on every
	// attempt and it was finally skipped — still in service, never taken
	// down. Member 1 rolled normally.
	if fleet.cancels == 0 || u.Rollbacks == 0 {
		t.Fatal("stalled drain was never rolled back")
	}
	for _, m := range fleet.upgraded {
		if m == 0 {
			t.Fatal("wedged member was taken down")
		}
	}
	if u.Phase(0) != UpgradeFailed {
		t.Fatalf("wedged member phase %v, want failed", u.Phase(0))
	}
	if u.Phase(1) != UpgradeDone {
		t.Fatalf("healthy member phase %v, want done", u.Phase(1))
	}
	if got := u.Failed(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Failed() = %v", got)
	}
}

func TestUpgraderWaitsForWarmGate(t *testing.T) {
	fleet := newUpFleet(2)
	fleet.needWarm[1] = 2 // member 1 warms only after a second re-announce
	u := drive(t, fleet, UpgradeConfig{WarmTimeout: 200 * simtime.Millisecond})
	announced := fleet.announces
	if announced[1] < 2 {
		t.Fatalf("member 1 re-announced %d times, want >= 2", announced[1])
	}
	if u.Phase(1) != UpgradeDone {
		t.Fatalf("member 1 phase %v", u.Phase(1))
	}
	// The swap always re-announces once before probing the gate.
	if announced[0] != 1 {
		t.Fatalf("member 0 announced %d times, want 1", announced[0])
	}
}
