package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/simtime"
)

// soakCase is one soak in TestSoaks.
type soakCase struct {
	id    string                               // its registered experiment
	run   func(seed int64) (soakReport, error) // one run at scale 1
	check func(t *testing.T, artifact []byte)  // its own sanity asserts on the seed-42 report
}

// soakRow builds a soakCase from a soak's run function and its sanity
// asserts, which get the report decoded from the experiment's artifact.
func soakRow[R soakReport](id string, run func(float64, int64) (R, error), check func(*testing.T, R)) soakCase {
	return soakCase{
		id:  id,
		run: func(seed int64) (soakReport, error) { return run(1, seed) },
		check: func(t *testing.T, artifact []byte) {
			var r R
			if err := json.Unmarshal(artifact, &r); err != nil {
				t.Fatalf("artifact does not decode: %v", err)
			}
			check(t, r)
		},
	}
}

var soaks = []soakCase{
	soakRow("chaos", RunChaosSoak, func(t *testing.T, r *ChaosReport) {
		// The soak loaded the switch hard enough for its invariants to mean
		// something.
		if r.FlowsEstablished < r.Capacity/2 {
			t.Errorf("established only %d flows against capacity %d", r.FlowsEstablished, r.Capacity)
		}
		if r.FaultsInjected == 0 {
			t.Error("no faults injected")
		}
	}),
	soakRow("reconcile", RunReconcileSoak, func(t *testing.T, r *ReconcileReport) {
		if r.FlowsEstablished < r.FlowsStarted/4 {
			t.Errorf("established only %d of %d flows", r.FlowsEstablished, r.FlowsStarted)
		}
		if r.FaultsInjected == 0 {
			t.Error("no faults injected")
		}
		if r.Applies == 0 {
			t.Error("no reconcile applies recorded")
		}
	}),
	soakRow("upgrade", RunUpgradeSoak, func(t *testing.T, r *UpgradeReport) {
		if r.FlowsEstablished < r.FlowsStarted/4 {
			t.Errorf("established only %d of %d flows", r.FlowsEstablished, r.FlowsStarted)
		}
		if r.HandoffDeltas == 0 {
			t.Error("no delta was ever replayed: the donor paused or traffic missed the transfer window")
		}
		if r.MovedFlows < r.FlowsEstablished/10 {
			t.Errorf("only %d of %d established flows were ever served by a second member",
				r.MovedFlows, r.FlowsEstablished)
		}
	}),
	soakRow("slo", RunSLOSoak, func(*testing.T, *SLOSoakReport) {}),
}

// TestSoaks runs each soak's experiment at seed 42, which runs the soak
// twice and fails unless its invariants hold and the two reports are the
// same bytes; applies the soak's own sanity asserts to that report; and
// insists seed 43 moves a count, not only the seed field. Then it asserts
// every soak's invariants at seeds 1–32, printing a failing seed's script,
// except under the race detector: that pass exists for data races, which
// seed 42 already exercises.
func TestSoaks(t *testing.T) {
	sweep := int64(32)
	if raceBuild() {
		sweep = 0
	}
	for _, c := range soaks {
		t.Run(c.id, func(t *testing.T) {
			exp, ok := ByID(c.id)
			if !ok {
				t.Fatalf("experiment %s not registered", c.id)
			}
			rep, err := exp.Run(1, 42)
			if err != nil {
				t.Fatal(err)
			}
			if want := strings.ToUpper(c.id) + "_soak.json"; rep.ArtifactName != want || len(rep.Artifact) == 0 {
				t.Fatalf("artifact = %q (%d bytes), want %s", rep.ArtifactName, len(rep.Artifact), want)
			}
			c.check(t, rep.Artifact)

			other, err := c.run(43)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(other)
			if err != nil {
				t.Fatal(err)
			}
			var at42, at43 map[string]any
			if err := errors.Join(json.Unmarshal(rep.Artifact, &at42), json.Unmarshal(b, &at43)); err != nil {
				t.Fatal(err)
			}
			delete(at42, "seed")
			delete(at43, "seed")
			if reflect.DeepEqual(at42, at43) {
				t.Error("seed 43 moved no count of the seed-42 report")
			}

			for seed := int64(1); seed <= sweep; seed++ {
				r, err := c.run(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				v := r.soakVerdict()
				for _, s := range v.Violations {
					t.Errorf("seed %d: invariant violated: %s", seed, s)
				}
				if len(v.Violations) > 0 {
					for _, ops := range v.replay {
						t.Errorf("seed %d replays as\n%s", seed, formatScript(seed, ops))
					}
				}
			}
		})
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// logTarget records what the driver asks of it. Its fault-target methods
// are never called: its soaks play an empty plan.
type logTarget struct {
	faults.Target
	log []string
}

func (l *logTarget) logf(format string, args ...any) {
	l.log = append(l.log, fmt.Sprintf(format, args...))
}

func (l *logTarget) advance(now simtime.Time) {
	l.logf("advance %d", int64(now)/int64(simtime.Millisecond))
}

func (l *logTarget) deliver(b *flowBook, _ simtime.Time, pkts []packet) {
	var s strings.Builder
	for _, p := range pkts {
		fmt.Fprint(&s, " ", p.i)
		if p.syn {
			s.WriteString("s")
		}
		b.sent(true)
	}
	l.logf("deliver%s", s.String())
}

func (l *logTarget) shadow(int) (pin, bool) { return pin{}, false }

func (l *logTarget) end(_ simtime.Time, i int) { l.logf("end %d", i) }

func (l *logTarget) apply(_ simtime.Time, op soakOp) error {
	l.logf("%v", op)
	return nil
}

// TestSoakDriver runs a hand-written script through the driver: each tick
// advances, applies its ops in script order, retires and delivers; past the
// loop's span only the ops' own ticks run, without revisits; until ends
// the loop right after an advance.
func TestSoakDriver(t *testing.T) {
	run := func(until func(int) bool) []string {
		tg := &logTarget{}
		s := newSoak(tg, newSoakTracer(), faults.Plan{}, simtime.Millisecond, 4, 2, 1)
		s.until = until
		s.finish = func() error { return nil }
		s.ops = script(
			[]soakOp{{at: 6, kind: opScan}, {at: 1, kind: opFail, member: 2}},
			[]soakOp{{at: 0, arrive: 1}, {at: 1, kind: opRestore, member: 2}, {at: 1, arrive: 1}},
		)
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		if s.book.packets != 4 {
			t.Errorf("book counted %d packets, want 4", s.book.packets)
		}
		return tg.log
	}
	want := []string{
		"advance 0", "deliver 0s",
		"advance 1", "{at: 1, kind: opFail, member: 2}", "{at: 1, kind: opRestore, member: 2}", "deliver 0 1s",
		"advance 2", "end 0", "deliver 1",
		"advance 3", "end 1", "deliver",
		"advance 6", "{at: 6, kind: opScan}", "deliver",
	}
	if got := run(nil); !slices.Equal(got, want) {
		t.Errorf("driver ran\n%q\nwant\n%q", got, want)
	}
	if got := run(func(t int) bool { return t == 3 }); !slices.Equal(got, want[:10]) {
		t.Errorf("until at tick 3: driver ran\n%q\nwant\n%q", got, want[:10])
	}
}

// TestSoakOpString pins the printed form of every op kind: each row's op
// is the literal its want reads, so a printed script pastes back as Go.
func TestSoakOpString(t *testing.T) {
	rows := []struct {
		op   soakOp
		want string
	}{
		{soakOp{at: 0, arrive: 2}, "{at: 0, arrive: 2}"},
		{soakOp{at: 0, kind: opBootstrap}, "{at: 0, kind: opBootstrap}"},
		{soakOp{at: 200, kind: opApply, gen: 2}, "{at: 200, kind: opApply, gen: 2}"},
		{soakOp{at: 350, kind: opFail, member: 1}, "{at: 350, kind: opFail, member: 1}"},
		{soakOp{at: 850, kind: opRestore, member: 1}, "{at: 850, kind: opRestore, member: 1}"},
		{soakOp{at: 1300, kind: opEdit, member: 2}, "{at: 1300, kind: opEdit, member: 2}"},
		{soakOp{at: 100, kind: opScan}, "{at: 100, kind: opScan}"},
		{soakOp{at: 400, arrive: 2, kind: opChurn, gen: 3}, "{at: 400, arrive: 2, kind: opChurn, gen: 3}"},
		{soakOp{at: 1400, kind: opUpgrade}, "{at: 1400, kind: opUpgrade}"},
	}
	for _, r := range rows {
		if got := r.op.String(); got != r.want {
			t.Errorf("%#v prints %q, want %q", r.op, got, r.want)
		}
	}
	want := "seed 7, script []soakOp{\n\t{at: 0, arrive: 2},\n\t{at: 350, kind: opFail, member: 1},\n}"
	if got := formatScript(7, []soakOp{rows[0].op, rows[3].op}); got != want {
		t.Errorf("script prints\n%s\nwant\n%s", got, want)
	}
}
