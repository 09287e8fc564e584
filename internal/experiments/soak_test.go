package experiments

import (
	"bytes"
	"encoding/json"
	"runtime/debug"
	"strings"
	"testing"
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
// insists seed 43 gives different bytes. Only chaos and slo move a count
// with every seed: upgrade's counts are the same at every seed (its seed
// moves hashes, not counts) and reconcile's take 11 values over seeds 1–32
// and 42, so for those two seed 43 may change only the seed field. Then it
// asserts every soak's invariants at seeds 1–32, except under the race
// detector: that pass exists for data races, which seed 42 already
// exercises.
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
			b, err := json.MarshalIndent(other, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(append(b, '\n'), rep.Artifact) {
				t.Error("seed change did not change the report")
			}

			for seed := int64(1); seed <= sweep; seed++ {
				r, err := c.run(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, v := range r.soakVerdict().Violations {
					t.Errorf("seed %d: invariant violated: %s", seed, v)
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
