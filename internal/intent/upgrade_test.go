package intent

import (
	"testing"

	"repro/internal/simtime"
)

// upFleet scripts the UpgradeOps surface: each member's drain and
// rejoin take a fixed number of pumps; drains can be wedged (zero
// progress) and the warm gate can demand re-announces.
type upFleet struct {
	n          int
	drainLeft  map[int]int // pumps until drain completes
	rejoinLeft map[int]int
	wedged     map[int]bool // drain never progresses
	needWarm   map[int]int  // re-announces required before warm

	draining  int // active donor, -1 none
	rejoining int
	upgraded  []int
	cancels   int
	announces map[int]int
}

func newUpFleet(n int) *upFleet {
	f := &upFleet{
		n: n, draining: -1, rejoining: -1,
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

func (f *upFleet) DrainSwitch(now simtime.Time, i int) error {
	f.draining = i
	return nil
}

func (f *upFleet) DrainStep(now simtime.Time, budget int) (int, bool, error) {
	i := f.draining
	if f.wedged[i] {
		return 0, false, nil
	}
	f.drainLeft[i]--
	if f.drainLeft[i] <= 0 {
		f.draining = -1
		return budget, true, nil
	}
	return budget, false, nil
}

func (f *upFleet) CancelDrain(now simtime.Time) error {
	f.cancels++
	f.draining = -1
	return nil
}

func (f *upFleet) UpgradeSwitch(i int) error {
	f.upgraded = append(f.upgraded, i)
	return nil
}

func (f *upFleet) RestoreSwitch(i int) error { return nil }

func (f *upFleet) RejoinSwitch(now simtime.Time, i int) error {
	if f.needWarm[i] > f.announces[i] {
		return ErrNotWarm
	}
	f.rejoining = i
	return nil
}

func (f *upFleet) RejoinStep(now simtime.Time, budget int) (int, bool, error) {
	i := f.rejoining
	f.rejoinLeft[i]--
	if f.rejoinLeft[i] <= 0 {
		f.rejoining = -1
		return budget, true, nil
	}
	return budget, false, nil
}

func (f *upFleet) CancelRejoin(now simtime.Time) error {
	f.cancels++
	f.rejoining = -1
	return nil
}

// drive pumps the upgrader to completion under virtual time.
func drive(t *testing.T, u *Upgrader, fleet *upFleet) simtime.Time {
	t.Helper()
	now := simtime.Time(0)
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatalf("rollout did not finish; member/phase: %v", fleet)
		}
		done, err := u.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return now
		}
		now = now.Add(100 * simtime.Millisecond)
	}
}

func TestUpgraderRollsWholeFleet(t *testing.T) {
	fleet := newUpFleet(3)
	u := NewUpgrader(fleet, nil, UpgradeConfig{})
	drive(t, u, fleet)
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
	u := NewUpgrader(fleet, nil, UpgradeConfig{
		StallTimeout: 300 * simtime.Millisecond,
		MaxRetries:   2,
	})
	drive(t, u, fleet)
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
	announced := map[int]int{}
	u := NewUpgrader(fleet, nil, UpgradeConfig{
		WarmTimeout: 200 * simtime.Millisecond,
		Reannounce: func(now simtime.Time, m int) error {
			announced[m]++
			fleet.announces[m]++
			return nil
		},
	})
	drive(t, u, fleet)
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
