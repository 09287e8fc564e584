package experiments

import (
	"strings"
	"testing"

	"repro/internal/dataplane"
)

const (
	testScale = 0.1
	testSeed  = 1
)

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registered %d experiments, want 22", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if r.ID == "" || r.Desc == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
	if _, ok := ByID("fig16"); !ok {
		t.Fatal("ByID(fig16) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
	if len(All()) != 22 {
		t.Fatal("experiment list incomplete")
	}
}

func TestTable1(t *testing.T) {
	r := Table1()
	s := r.String()
	if !strings.Contains(s, "2016") || !strings.Contains(s, "SRAM") {
		t.Fatalf("table1 output:\n%s", s)
	}
}

func TestTable2MatchesPaperBand(t *testing.T) {
	_, data, err := table2Build()
	if err != nil {
		t.Fatal(err)
	}
	u := data.Usage
	// The paper's Table 2 values with generous bands (the baseline
	// switch.p4 absolute usage is calibrated, see asic.BaselineSwitchP4).
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"SRAM", u.SRAM, 0.2792, 0.15},
		{"crossbar", u.MatchCrossbar, 0.3753, 0.20},
		{"hash bits", u.HashBits, 0.3417, 0.20},
		{"stateful ALUs", u.StatefulALUs, 0.4444, 0.25},
		{"TCAM", u.TCAM, 0, 0.001},
	}
	for _, c := range checks {
		if c.got < c.want-c.tol || c.got > c.want+c.tol {
			t.Errorf("%s = %.4f, paper %.4f (tol %.2f)", c.name, c.got, c.want, c.tol)
		}
	}
	if rep, err := Table2(); err != nil || rep.String() == "" {
		t.Fatalf("Table2 render: %v", err)
	}
}

func TestFig2Renders(t *testing.T) {
	r := Fig2(testScale, testSeed)
	if !strings.Contains(r.String(), "p99 minute") {
		t.Fatal("fig2 missing rows")
	}
}

func TestFig3UpgradeDominates(t *testing.T) {
	r := Fig3(testScale, testSeed)
	s := r.String()
	if !strings.Contains(s, "upgrade") {
		t.Fatalf("fig3:\n%s", s)
	}
}

func TestFig4And6And8Render(t *testing.T) {
	for _, rep := range []*Report{Fig4(testScale, testSeed), Fig6(testSeed), Fig8(testScale, testSeed)} {
		if len(rep.String()) < 50 {
			t.Fatalf("%s too short", rep.ID)
		}
	}
}

func TestFig12WithinASICBudget(t *testing.T) {
	r := Fig12(testSeed)
	s := r.String()
	if !strings.Contains(s, "Backend") {
		t.Fatalf("fig12:\n%s", s)
	}
}

func TestFig13And14Render(t *testing.T) {
	if s := Fig13(testSeed).String(); !strings.Contains(s, "Frontend") {
		t.Fatalf("fig13:\n%s", s)
	}
	if s := Fig14(testSeed).String(); !strings.Contains(s, "digest") {
		t.Fatalf("fig14:\n%s", s)
	}
}

// TestFig15ShapeHolds asserts the paper's version-reuse claim: without
// reuse the minted-version count tracks the update count; with reuse the
// concurrent demand stays within a 6-bit field even at 330 updates per
// 10 minutes.
func TestFig15ShapeHolds(t *testing.T) {
	noMint, noActive, err := fig15Run(330, testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	reMint, reActive, err := fig15Run(330, testSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if noMint < 300 {
		t.Fatalf("no-reuse minted %d versions for 330 updates, should track updates", noMint)
	}
	if noActive <= 64 {
		t.Fatalf("no-reuse max active = %d; paper needs 9 bits here", noActive)
	}
	if reActive > 64 {
		t.Fatalf("with reuse, max active = %d versions exceed a 6-bit field", reActive)
	}
	if reMint >= noMint {
		t.Fatalf("reuse minted %d >= no-reuse %d", reMint, noMint)
	}
}

// TestFig16ShapeHolds is the headline result: SilkRoad has zero broken
// connections at every update rate while both baselines break some.
func TestFig16ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := fig16BaseConfig(testScale, testSeed)
	cfg.UpdatesPerMin = 50

	sres, err := silkroadSim(cfg, nil, "SilkRoad")
	if err != nil {
		t.Fatal(err)
	}
	if sres.BrokenConns != 0 {
		t.Fatalf("SilkRoad broke %d connections", sres.BrokenConns)
	}
	nres, err := silkroadSim(cfg,
		func(d *dataplane.Config) { d.DisableTransit = true },
		"SilkRoad w/o TransitTable")
	if err != nil {
		t.Fatal(err)
	}
	if nres.BrokenConns == 0 {
		t.Fatal("no-TransitTable ablation broke nothing at 50 upd/min (suspicious)")
	}
}

func TestFig5Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r, err := Fig5(0.05, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "Migrate-PCC") {
		t.Fatalf("fig5:\n%s", r)
	}
}

func TestNetwideAndHybridRender(t *testing.T) {
	r, err := Netwide(testScale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "bottleneck SRAM") {
		t.Fatalf("netwide:\n%s", r)
	}
	h, err := Hybrid(testScale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.String(), "overflow") {
		t.Fatalf("hybrid:\n%s", h)
	}
}

func TestSec52Renders(t *testing.T) {
	r, err := Sec52(0.2, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "meter accuracy") || !strings.Contains(s, "insertion throughput") {
		t.Fatalf("sec52:\n%s", s)
	}
}

func TestDigestFPRateOrdering(t *testing.T) {
	fp16 := digestFPRate(16, testSeed)
	fp24 := digestFPRate(24, testSeed)
	if fp16 <= fp24 {
		t.Fatalf("fp16=%.6f should exceed fp24=%.6f", fp16, fp24)
	}
	if fp16 > 0.01 {
		t.Fatalf("fp16=%.5f implausibly high", fp16)
	}
}

func TestMeterAccuracyWithinOnePercent(t *testing.T) {
	if acc := meterAccuracy(); acc < -0.01 || acc > 0.01 {
		t.Fatalf("meter accuracy error = %.4f", acc)
	}
}

func TestInsertionThroughputNearConfigured(t *testing.T) {
	rate, delay := insertionThroughput(0.3)
	if rate < 150_000 || rate > 210_000 {
		t.Fatalf("insertion rate = %.0f, want ~200K (saturated)", rate)
	}
	if delay <= 0 {
		t.Fatal("no insert delay recorded")
	}
}
