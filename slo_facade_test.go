package silkroad

// Facade-level coverage for the SLO engine: attachment rules, the
// evaluator running as a scheduler source under AdvanceTo, and the fleet
// roll-up gating a rolling reconcile on a firing page alert.

import (
	"testing"

	"repro/internal/netproto"
	"repro/internal/telemetry"
)

func TestSLORequiresTelemetry(t *testing.T) {
	cfg := Defaults(1000)
	cfg.SLO = &SLOConfig{}
	if _, err := NewSwitch(cfg); err == nil {
		t.Fatal("NewSwitch accepted SLO config without a telemetry registry")
	}
}

func TestSwitchSLOEndToEnd(t *testing.T) {
	cfg := Defaults(100000)
	cfg.Pipes = 2
	cfg.Telemetry = NewTelemetry()
	cfg.FlightRecorder = NewFlightRecorder(FlightRecorderConfig{})
	cfg.Clock = NewManualClock(0)
	cfg.SLO = &SLOConfig{
		Interval:      10 * Millisecond,
		WindowSamples: 16,
		FastWindow:    2,
		SlowWindow:    4,
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sw.SLO() == nil {
		t.Fatal("SLO() = nil with an SLO config attached")
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20")); err != nil {
		t.Fatal(err)
	}

	now := Time(0)
	for tick := 0; tick < 8; tick++ {
		for i := 0; i < 50; i++ {
			process(sw, now, clientPkt(tick*50+i, netproto.FlagSYN))
		}
		now += Time(10 * Millisecond)
		sw.AdvanceTo(now)
	}

	rep := sw.SLO().Report()
	if rep.Evals == 0 {
		t.Fatal("evaluator never ran under AdvanceTo")
	}
	if rep.Fast.NewFlowRate <= 0 {
		t.Errorf("new-flow rate = %v, want > 0", rep.Fast.NewFlowRate)
	}
	if len(rep.Pipes) != 2 {
		t.Errorf("pipe forecasts = %d, want 2", len(rep.Pipes))
	}
	if len(rep.Alerts) != len(DefaultSLORules()) {
		t.Errorf("alert board = %d rules, want %d", len(rep.Alerts), len(DefaultSLORules()))
	}
	if len(rep.VIPs) == 0 {
		t.Error("no per-VIP SLIs reported")
	}
	// The evaluator's own instruments land in the shared registry.
	snap := cfg.Telemetry.Snapshot(now)
	if snap.Counters["silkroad_slo_evals_total"] == 0 {
		t.Error("silkroad_slo_evals_total not exported")
	}
}

// TestClusterSLOPausesRollout drives the full loop the issue asks for: a
// page-severity alert firing on one member holds an in-flight rolling
// fleet update, and the rollout completes after the alert resolves.
func TestClusterSLOPausesRollout(t *testing.T) {
	clock := NewManualClock(0)
	cfg := Defaults(10000)
	cfg.Clock = clock
	cfg.Telemetry = NewTelemetry()
	cfg.SLO = &SLOConfig{
		Interval:      10 * Millisecond,
		WindowSamples: 8,
		FastWindow:    1,
		SlowWindow:    2,
		Rules: []SLORule{{
			Name: "insert-pressure", Severity: SeverityPage, Threshold: 100,
			FireAfter: 1, ClearAfter: 1,
			Value: func(s SLOSignals) float64 { return s.InsertPressure },
		}},
	}
	c, err := NewCluster(ClusterConfig{Switches: 2, Switch: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkClocks(t, c) })

	spec := &ClusterSpec{Version: SpecVersion, VIPs: []VIPSpec{
		{VIP: "20.0.0.1:80", Pool: []string{"10.0.0.1:20"}},
	}}
	now := Time(0)
	if _, err := c.Apply(now, spec); err != nil {
		t.Fatal(err)
	}
	converge := func() {
		t.Helper()
		for i := 0; i < 100; i++ {
			now += Time(Millisecond)
			c.AdvanceTo(now)
			if c.Converged() {
				return
			}
		}
		t.Fatalf("fleet not converged: %+v", c.Statuses())
	}
	converge()

	// Burn member 1: sustained insert-path pressure trips the page.
	reg1 := c.Switch(1).Telemetry()
	for tick := 0; tick < 6; tick++ {
		for i := 0; i < 50; i++ {
			reg1.Trace(telemetry.Event{Kind: telemetry.KindInsert, Now: now, Outcome: telemetry.InsertRetry})
		}
		now += Time(10 * Millisecond)
		c.AdvanceTo(now)
	}
	if !c.Switch(1).SLO().PageFiring() {
		t.Fatalf("member 1 page not firing: %+v", c.Switch(1).SLO().Alerts())
	}
	fleet := c.SLO()
	if !fleet.PageFiring {
		t.Fatal("fleet roll-up missed the firing page")
	}
	if len(fleet.Alerts) == 0 || fleet.Alerts[0].Member != 1 {
		t.Fatalf("fleet alerts lack member attribution: %+v", fleet.Alerts)
	}

	// Stage generation 2 mid-burn: the rollout must hold.
	spec2 := &ClusterSpec{Version: SpecVersion, VIPs: []VIPSpec{
		{VIP: "20.0.0.1:80", Pool: []string{"10.0.0.1:20", "10.0.0.2:20"}},
	}}
	if _, err := c.Apply(now, spec2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		now += Time(Millisecond)
		c.AdvanceTo(now)
		if c.Converged() {
			t.Fatal("rollout converged through a firing page alert")
		}
	}
	if !c.RolloutPaused() {
		t.Fatal("RolloutPaused = false while a member page fires")
	}

	// Quiet: the pressure stops, the alert resolves, the rollout resumes.
	for tick := 0; tick < 6; tick++ {
		now += Time(10 * Millisecond)
		c.AdvanceTo(now)
	}
	if c.Switch(1).SLO().PageFiring() {
		t.Fatalf("member 1 page still firing after quiet: %+v", c.Switch(1).SLO().Alerts())
	}
	converge()
	if c.RolloutPaused() {
		t.Fatal("RolloutPaused = true after completed rollout")
	}
	for _, st := range c.Statuses() {
		if st.Condition != CondApplied || st.ObservedGeneration != 2 {
			t.Errorf("status %+v, want Applied@2", st)
		}
	}
}
