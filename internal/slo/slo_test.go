package slo

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

const tick = simtime.Second

// newTestEvaluator builds a registry + evaluator with small windows so
// lifecycle tests stay short.
func newTestEvaluator(rules []Rule, journal func() uint64) (*telemetry.Registry, *Evaluator) {
	reg := telemetry.NewRegistry()
	e := New(reg, 0, Config{
		Interval:       tick,
		WindowSamples:  16,
		FastWindow:     2,
		SlowWindow:     4,
		ForecastWindow: 8,
		MaxPipes:       4,
		Rules:          rules,
		Journal:        journal,
	})
	return reg, e
}

// learn pushes n learned insertions through the registry at time now.
func learn(reg *telemetry.Registry, now simtime.Time, n int) {
	for i := 0; i < n; i++ {
		reg.Trace(telemetry.Event{
			Kind: telemetry.KindInsert,
			Now:  now, Insert: telemetry.InsertLearned,
			Outcome: telemetry.InsertOK, ArrivedAt: now - simtime.Time(2*simtime.Millisecond),
		})
	}
}

func TestEvaluatorSignals(t *testing.T) {
	reg, e := newTestEvaluator(nil, nil)
	var now simtime.Time
	for i := 0; i < 6; i++ {
		now += simtime.Time(tick)
		learn(reg, now, 50)
		for j := 0; j < 3; j++ {
			reg.Trace(telemetry.Event{Kind: telemetry.KindInsert, Now: now, Outcome: telemetry.InsertRetry})
		}
		e.Advance(now)
	}
	rep := e.Report()
	if rep.Evals != 6 {
		t.Fatalf("evals = %d, want 6", rep.Evals)
	}
	if got := rep.Fast.NewFlowRate; math.Abs(got-50) > 1e-9 {
		t.Errorf("fast new-flow rate = %v, want 50", got)
	}
	if got := rep.Fast.InsertPressure; math.Abs(got-3) > 1e-9 {
		t.Errorf("fast insert pressure = %v, want 3", got)
	}
	// All pending windows were 2ms, so p99 lands in the 3ms bucket bound.
	if got := rep.Fast.PendingP99; got < 0.002 || got > 0.003 {
		t.Errorf("pending p99 = %v, want within (0.002, 0.003]", got)
	}
	if rep.Fast.Seconds != 2 || rep.Slow.Seconds != 4 {
		t.Errorf("window widths = %v/%v, want 2/4", rep.Fast.Seconds, rep.Slow.Seconds)
	}
}

func TestForecasterPredictsExhaustion(t *testing.T) {
	reg, e := newTestEvaluator(nil, nil)
	var now simtime.Time
	entries := 0
	for i := 0; i < 8; i++ {
		now += simtime.Time(tick)
		entries += 100 // steady 100 entries/second
		reg.Trace(telemetry.Event{
			Kind: telemetry.KindCuckoo,
			Now:  now, Pipe: 0, CuckooOp: telemetry.CuckooInsert, OK: true,
			Len: entries, Capacity: 2000,
		})
		e.Advance(now)
	}
	rep := e.Report()
	if len(rep.Pipes) != 1 {
		t.Fatalf("forecasts = %d, want 1", len(rep.Pipes))
	}
	f := rep.Pipes[0]
	if math.Abs(f.SlopePerSec-100) > 1 {
		t.Errorf("slope = %v, want ~100", f.SlopePerSec)
	}
	// 800 entries of 2000 filled, growing 100/s: ~12s to exhaustion.
	if f.TTESeconds < 10 || f.TTESeconds > 14 {
		t.Errorf("tte = %v, want ~12", f.TTESeconds)
	}
	if rep.Fast.ExhaustionRisk <= 0 {
		t.Errorf("exhaustion risk = %v, want > 0", rep.Fast.ExhaustionRisk)
	}
}

func TestForecasterFlatTableNoPrediction(t *testing.T) {
	reg, e := newTestEvaluator(nil, nil)
	var now simtime.Time
	for i := 0; i < 6; i++ {
		now += simtime.Time(tick)
		reg.Trace(telemetry.Event{
			Kind: telemetry.KindCuckoo,
			Now:  now, Pipe: 0, CuckooOp: telemetry.CuckooInsert, OK: true,
			Len: 500, Capacity: 2000,
		})
		e.Advance(now)
	}
	f := e.Report().Pipes[0]
	if f.TTESeconds != -1 {
		t.Errorf("flat table tte = %v, want -1", f.TTESeconds)
	}
	if f.FillFrac != 0.25 {
		t.Errorf("fill fraction = %v, want 0.25", f.FillFrac)
	}
}

func TestAlertLifecycle(t *testing.T) {
	var cursor uint64
	rules := []Rule{{
		Name: "pressure", Severity: SeverityPage, Threshold: 10,
		FireAfter: 2, ClearAfter: 2,
		Value: func(s Signals) float64 { return s.InsertPressure },
	}}
	reg, e := newTestEvaluator(rules, func() uint64 { return cursor })

	var now simtime.Time
	step := func(retries int) AlertStatus {
		now += simtime.Time(tick)
		cursor += 7
		for i := 0; i < retries; i++ {
			reg.Trace(telemetry.Event{Kind: telemetry.KindInsert, Now: now, Outcome: telemetry.InsertRetry})
		}
		e.Advance(now)
		return e.Alerts()[0]
	}

	if a := step(0); a.State != "inactive" {
		t.Fatalf("state = %s, want inactive", a.State)
	}
	// 40 retries/tick over a 2-sample fast window = 20/s: breach.
	a := step(40)
	if a.State != "pending" {
		t.Fatalf("state after breach = %s, want pending", a.State)
	}
	if a.Cursor == 0 {
		t.Fatalf("pending transition captured no journal cursor")
	}
	step(40)
	a = step(40)
	if a.State != "firing" {
		t.Fatalf("state after sustained breach = %s, want firing", a.State)
	}
	if !e.PageFiring() {
		t.Fatalf("PageFiring = false with a firing page alert")
	}
	// Quiet: clear for ClearAfter consecutive evaluations.
	step(0)
	step(0)
	a = step(0)
	if a.State != "resolved" {
		t.Fatalf("state after quiet = %s, want resolved", a.State)
	}
	if e.PageFiring() {
		t.Fatalf("PageFiring = true after resolve")
	}

	hist := e.History()
	var edges []string
	for _, tr := range hist {
		edges = append(edges, tr.From+">"+tr.To)
		if tr.Cursor == 0 {
			t.Errorf("transition %s>%s has no cursor", tr.From, tr.To)
		}
	}
	want := []string{"inactive>pending", "pending>firing", "firing>resolved"}
	if len(edges) != len(want) {
		t.Fatalf("transitions = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", edges, want)
		}
	}
}

func TestAlertHysteresisHoldsFiring(t *testing.T) {
	rules := []Rule{{
		Name: "pressure", Severity: SeverityTicket, Threshold: 10,
		ResolveFraction: 0.5, FireAfter: 1, ClearAfter: 1,
		Value: func(s Signals) float64 { return s.InsertPressure },
	}}
	reg, e := newTestEvaluator(rules, nil)
	var now simtime.Time
	step := func(retries int) AlertStatus {
		now += simtime.Time(tick)
		for i := 0; i < retries; i++ {
			reg.Trace(telemetry.Event{Kind: telemetry.KindInsert, Now: now, Outcome: telemetry.InsertRetry})
		}
		e.Advance(now)
		return e.Alerts()[0]
	}
	step(0)
	step(40) // 20/s, breach -> pending
	a := step(40)
	if a.State != "firing" {
		t.Fatalf("state = %s, want firing", a.State)
	}
	// 14 retries/tick ~ 2-sample window values in (5, 10): inside the
	// hysteresis band, so the alert must hold.
	for i := 0; i < 4; i++ {
		a = step(14)
	}
	if a.State != "firing" {
		t.Fatalf("state in hysteresis band = %s, want firing", a.State)
	}
}

func TestSteadyStateAllocationFree(t *testing.T) {
	reg, e := newTestEvaluator(nil, nil)
	reg.RegisterVIP(0, telemetry.VIPKey{Port: 80, Proto: 6})
	var now simtime.Time
	// Warm up: fill the ring and let buffers reach their steady sizes.
	for i := 0; i < 20; i++ {
		now += simtime.Time(tick)
		learn(reg, now, 10)
		reg.Trace(telemetry.Event{Kind: telemetry.KindCuckoo, Now: now, Pipe: 0, CuckooOp: telemetry.CuckooInsert,
			OK: true, Len: 10 * (i + 1), Capacity: 100000})
		e.Advance(now)
	}
	allocs := testing.AllocsPerRun(50, func() {
		now += simtime.Time(tick)
		learn(reg, now, 10)
		e.Advance(now)
	})
	// learn() itself allocates nothing; the tick must not either.
	if allocs > 0 {
		t.Errorf("steady-state tick allocates %.1f objects/run, want 0", allocs)
	}
}

func TestReportJSONDeterministic(t *testing.T) {
	run := func() []byte {
		reg, e := newTestEvaluator(nil, func() uint64 { return 42 })
		var now simtime.Time
		for i := 0; i < 6; i++ {
			now += simtime.Time(tick)
			learn(reg, now, 25)
			reg.Trace(telemetry.Event{Kind: telemetry.KindCuckoo, Now: now, Pipe: 0, CuckooOp: telemetry.CuckooInsert,
				OK: true, Len: 50 * (i + 1), Capacity: 1000})
			e.Advance(now)
		}
		b, err := json.Marshal(e.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("report JSON differs across identical runs:\n%s\n%s", a, b)
	}
	// JSON-safety: no +Inf or NaN may ever reach the payload.
	var anything map[string]any
	if err := json.Unmarshal(a, &anything); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
}

func TestAggregateFleet(t *testing.T) {
	mk := func(pps, p99, deg float64, alerts ...AlertStatus) Report {
		return Report{
			Now:    simtime.Time(5 * simtime.Second),
			Fast:   Signals{Seconds: 2, PPS: pps, PendingP99: p99, DegradedFrac: deg},
			Slow:   Signals{Seconds: 4, PPS: pps},
			Alerts: alerts,
		}
	}
	firing := AlertStatus{Rule: "degraded", Severity: "page", State: "firing"}
	idle := AlertStatus{Rule: "degraded", Severity: "page", State: "inactive"}
	f := Aggregate([]Report{
		mk(100, 0.001, 0, idle),
		mk(200, 0.004, 0.5, firing),
	})
	if f.Members != 2 {
		t.Fatalf("members = %d, want 2", f.Members)
	}
	if f.Fast.PPS != 300 {
		t.Errorf("fleet pps = %v, want 300", f.Fast.PPS)
	}
	if f.WorstPendingP99 != 1 || f.WorstDegraded != 1 {
		t.Errorf("worst members = p99:%d deg:%d, want 1/1", f.WorstPendingP99, f.WorstDegraded)
	}
	if !f.PageFiring {
		t.Errorf("PageFiring = false with a firing page alert")
	}
	if len(f.Alerts) != 1 || f.Alerts[0].Member != 1 {
		t.Errorf("fleet alerts = %+v, want one from member 1", f.Alerts)
	}
}
