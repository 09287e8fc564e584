package experiments

// SLO soak: the telemetry -> SLO -> alerting -> fleet-gate loop end to
// end, in three seeded phases. Phases A and B send traffic, so each is a
// script on the soak driver against a switchTarget; phase C sends none and
// is a function on the fleet.
//
// Phase A (burn): a two-pipe switch under steady connection churn takes a
// CPU brownout plus learning-channel digest loss from the driver's fault
// plan. The insert path backs up, the burn-rate rules trip Pending ->
// Firing, the fault clears, and the alerts walk back to Resolved — each
// transition stamped with a flight-recorder journal cursor. No rule may go
// Pending before the faults land, and no retired flow may have left its
// pool version in the exact-tuple shadow. The full alert timeline is the
// golden-tested artifact.
//
// Phase B (forecast): a small-table switch fills at a steady flow rate;
// the occupancy forecaster must predict time-to-exhaustion while the
// table still has headroom, before occupancy actually pins at capacity.
//
// Phase C (fleet gate): a three-member cluster stages a rolling update
// while one member's page alert fires; the rollout must hold at the
// frontier until the alert resolves, then converge.
//
// Everything runs on manual virtual clocks; the same (scale, seed) must
// reproduce SLO_soak.json byte for byte.

import (
	"fmt"
	"slices"

	silkroad "repro"
	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

const (
	sloTick       = simtime.Millisecond // workload step
	sloInterval   = 10 * simtime.Millisecond
	sloBurnStart  = 100  // tick the faults land on
	sloBurnEnd    = 250  // tick the brownout lifts
	sloBurnTicks  = 500  // phase A length
	sloBurnLife   = 50   // ticks a phase A flow lives
	sloBurnStride = 150  // a third of phase A's flows are revisited once
	sloFillTicks  = 1500 // phase B's bound on the time to fill
)

// SLOTimelineEntry is one alert transition in the soak's golden timeline.
type SLOTimelineEntry struct {
	AtMS   int64  `json:"at_ms"`
	Rule   string `json:"rule"`
	From   string `json:"from"`
	To     string `json:"to"`
	Cursor uint64 `json:"cursor"`
}

// SLOSoakReport is the machine-readable outcome written to SLO_soak.json.
type SLOSoakReport struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`

	// Phase A: burn-rate alerting under faults.
	BurnEvals       uint64             `json:"burn_evals"`
	BurnFlows       int                `json:"burn_flows"`
	BurnFireCycles  int                `json:"burn_fire_resolve_cycles"`
	BurnMaxPending  float64            `json:"burn_max_pending_p99_seconds"`
	BurnMaxPressure float64            `json:"burn_max_insert_pressure"`
	Timeline        []SLOTimelineEntry `json:"timeline"`

	// Phase B: occupancy forecasting.
	ForecastCapacity     int64   `json:"forecast_capacity"`
	ForecastPredictedAt  float64 `json:"forecast_predicted_at_fill_frac"`
	ForecastTTEAtPredict float64 `json:"forecast_tte_seconds_at_predict"`
	ForecastLeadEvals    int     `json:"forecast_lead_evals"` // evals between prediction and actual fill
	ForecastAlertFired   bool    `json:"forecast_alert_fired"`

	// Phase C: the fleet rollout gate.
	GatePausedSteps   int    `json:"gate_paused_steps"`
	GateConverged     bool   `json:"gate_converged"`
	GateFinalGen      uint64 `json:"gate_final_generation"`
	GateResumedCycles int    `json:"gate_member_fire_cycles"`

	verdict
}

// sloSwitch builds cfg's switch on a manual clock with telemetry and slo
// armed, serving the soak VIP from pool, as a soak target.
func sloSwitch(cfg silkroad.Config, slo silkroad.SLOConfig, pool ...string) (*switchTarget, error) {
	cfg.Clock = silkroad.NewManualClock(0)
	cfg.Telemetry = silkroad.NewTelemetry()
	cfg.SLO = &slo
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		return nil, err
	}
	if err := sw.AddVIP(0, expVIP(), silkroad.Pool(pool...)); err != nil {
		return nil, err
	}
	return &switchTarget{Switch: sw, Target: sw.Engine()}, nil
}

// sloBurn builds phase A: 30 new flows a millisecond, each living
// sloBurnLife ticks, a third of them revisited once, and a brownout with
// digest loss from sloBurnStart to sloBurnEnd, traced into the switch's
// flight recorder. The run lasts to sloBurnTicks so the alerts can
// resolve; until tracks the fast window's peaks after every advance, and
// finish reads the alert timeline.
func sloBurn(rep *SLOSoakReport, seed int64) (*soak, error) {
	cfg := silkroad.Defaults(200000)
	cfg.Pipes = 2
	cfg.FlightRecorder = silkroad.NewFlightRecorder(silkroad.FlightRecorderConfig{})
	cfg.Controlplane.MaxInsertQueue = 64
	// The alert policy is tuned so the seeded brownout deterministically
	// walks both rules through a full fire/resolve cycle.
	tg, err := sloSwitch(cfg, silkroad.SLOConfig{
		Interval: sloInterval, WindowSamples: 32, FastWindow: 2, SlowWindow: 5, Rules: []silkroad.SLORule{
			{
				Name: "insert-pressure", Severity: silkroad.SeverityPage,
				Threshold: 50, FireAfter: 2, ClearAfter: 3,
				Value: func(s silkroad.SLOSignals) float64 { return s.InsertPressure },
			},
			{
				// Above the 3 ms bucket that a p99 just over the 1 ms learn
				// timeout reads on baseline load.
				Name: "pending-p99", Severity: silkroad.SeverityTicket,
				Threshold: 0.005, FireAfter: 2, ClearAfter: 3,
				Value: func(s silkroad.SLOSignals) float64 { return s.PendingP99 },
			},
		},
	}, "10.0.0.1:20", "10.0.0.2:20")
	if err != nil {
		return nil, err
	}
	at, burn := simtime.Time(sloBurnStart*sloTick), simtime.Duration(sloBurnEnd-sloBurnStart)*sloTick
	plan := faults.Plan{Seed: uint64(seed), Events: []faults.Event{
		{At: at, Kind: faults.CPUSlow, Pipe: -1, Scale: 0.02, Duration: burn},
		{At: at, Kind: faults.DigestLoss, Pipe: -1, Scale: 0.3, Duration: burn},
	}}
	s := newSoak(tg, tg.FlightRecorder(), plan, sloTick, sloBurnTicks, sloBurnLife, sloBurnStride)
	s.ops = script(pulses(sloBurnTicks, 30, 1, 1), []soakOp{{at: sloBurnTicks}})
	ev := tg.SLO()
	s.until = func(int) bool {
		fast := ev.Report().Fast
		rep.BurnMaxPending = max(rep.BurnMaxPending, fast.PendingP99)
		rep.BurnMaxPressure = max(rep.BurnMaxPressure, fast.InsertPressure)
		return false
	}
	s.finish = func() error {
		rep.BurnFlows = len(s.book.flows)
		rep.check(s.book.pccViolations == 0, "phase A: %d PCC violations against the exact-tuple shadow", s.book.pccViolations)
		rep.BurnEvals = ev.Report().Evals
		for _, tr := range ev.History() {
			rep.Timeline = append(rep.Timeline, SLOTimelineEntry{
				AtMS: int64(tr.Time) / int64(simtime.Millisecond),
				Rule: tr.Rule, From: tr.From, To: tr.To, Cursor: tr.Cursor,
			})
			if tr.To == "resolved" {
				rep.BurnFireCycles++
			}
		}
		return nil
	}
	return s, nil
}

// sloForecast builds phase B: 5 new flows a millisecond fill a small table.
// The script is arrivals alone (a span of 0 ticks: no revisits), and no
// flow ends within sloFillTicks. until reads the forecast after every
// advance and ends the run once the table is full.
func sloForecast(rep *SLOSoakReport, _ int64) (*soak, error) {
	tg, err := sloSwitch(silkroad.Defaults(2000), silkroad.SLOConfig{
		Interval: sloInterval, WindowSamples: 32, FastWindow: 2, SlowWindow: 5, ForecastWindow: 8,
	}, "10.0.0.1:20")
	if err != nil {
		return nil, err
	}
	s := newSoak(tg, nil, faults.Plan{}, sloTick, 0, sloFillTicks, 1)
	s.ops = pulses(sloFillTicks, 5, 1, 1)
	ev := tg.SLO()
	predictEval, fullEval := -1, -1
	s.until = func(int) bool {
		r := ev.Report()
		if len(r.Pipes) == 0 {
			return false
		}
		p := r.Pipes[0]
		rep.ForecastCapacity = p.Capacity // fixed: phase B injects no faults
		if predictEval < 0 && p.TTESeconds >= 0 {
			predictEval = int(r.Evals)
			rep.ForecastPredictedAt = p.FillFrac
			rep.ForecastTTEAtPredict = p.TTESeconds
		}
		if p.FillFrac >= 0.99 {
			fullEval = int(r.Evals)
		}
		return fullEval >= 0
	}
	s.finish = func() error {
		if predictEval >= 0 && fullEval > predictEval {
			rep.ForecastLeadEvals = fullEval - predictEval
		}
		rep.ForecastAlertFired = slices.ContainsFunc(ev.Alerts(), func(a silkroad.AlertStatus) bool {
			return a.Rule == "conntable-exhaustion" && (a.State == "firing" || a.State == "resolved")
		})
		return nil
	}
	return s, nil
}

// runSLOGate is phase C.
func runSLOGate(rep *SLOSoakReport) error {
	cfg := silkroad.Defaults(10000)
	cfg.Clock = silkroad.NewManualClock(0)
	cfg.SLO = &silkroad.SLOConfig{
		Interval: sloInterval, WindowSamples: 16, FastWindow: 1, SlowWindow: 2,
		Rules: []silkroad.SLORule{{
			Name: "insert-pressure", Severity: silkroad.SeverityPage,
			Threshold: 100, FireAfter: 1, ClearAfter: 1,
			Value: func(s silkroad.SLOSignals) float64 { return s.InsertPressure },
		}},
	}
	c, err := silkroad.NewCluster(silkroad.ClusterConfig{Switches: 3, Switch: cfg})
	if err != nil {
		return err
	}

	spec := func(pool ...string) *silkroad.ClusterSpec {
		return &silkroad.ClusterSpec{Version: silkroad.SpecVersion, VIPs: []silkroad.VIPSpec{
			{VIP: "20.0.0.1:80", Pool: pool},
		}}
	}
	var now simtime.Time
	if _, err := c.Apply(now, spec("10.0.0.1:20")); err != nil {
		return err
	}
	converge := func() bool {
		for i := 0; i < 200; i++ {
			now = now.Add(sloTick)
			c.AdvanceTo(now)
			if c.Converged() {
				return true
			}
		}
		return false
	}
	if !converge() {
		return fmt.Errorf("slo gate: generation 1 never converged")
	}

	// Burn member 2 until its page fires, stage generation 2 mid-burn,
	// count the held steps, then let the alert resolve and converge.
	burn := func(ticks int) {
		reg := c.Switch(2).Telemetry()
		for t := 0; t < ticks; t++ {
			for i := 0; i < 50; i++ {
				reg.Trace(telemetry.Event{Kind: telemetry.KindInsert, Now: now, Outcome: telemetry.InsertRetry})
			}
			now = now.Add(sloInterval)
			c.AdvanceTo(now)
		}
	}
	burn(4)
	if !c.Switch(2).SLO().PageFiring() {
		return fmt.Errorf("slo gate: member 2 page never fired")
	}
	if _, err := c.Apply(now, spec("10.0.0.1:20", "10.0.0.2:20")); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		now = now.Add(sloTick)
		c.AdvanceTo(now)
		if c.RolloutPaused() {
			rep.GatePausedSteps++
		}
	}
	for t := 0; t < 6; t++ { // quiet interval: the alert resolves
		now = now.Add(sloInterval)
		c.AdvanceTo(now)
	}
	rep.GateConverged = converge()
	rep.GateFinalGen = c.Generation()
	n := clockRegressions(c)
	rep.check(n == 0, "phase C: %d control-plane advances ran behind a member's clock", n)
	for _, tr := range c.Switch(2).SLO().History() {
		if tr.To == "resolved" {
			rep.GateResumedCycles++
		}
	}
	return nil
}

// sloInvariants is the soak's promises, checked against a finished run.
func sloInvariants(r *SLOSoakReport) {
	r.check(r.BurnFireCycles >= 1, "phase A: no firing->resolved cycle (timeline %d entries)", len(r.Timeline))
	// A rule that fired went Pending only once the faults landed, and had
	// resolved by the end of the phase: its last transition is to resolved.
	for i, tr := range r.Timeline {
		rule := func(e SLOTimelineEntry) bool { return e.Rule == tr.Rule }
		if !slices.ContainsFunc(r.Timeline, func(e SLOTimelineEntry) bool { return rule(e) && e.To == "firing" }) {
			continue
		}
		r.check(tr.To != "pending" || simtime.Duration(tr.AtMS)*simtime.Millisecond >= sloBurnStart*sloTick,
			"phase A: %s went pending at %d ms, before the faults at %d ms", tr.Rule, tr.AtMS, sloBurnStart*sloTick/simtime.Millisecond)
		r.check(slices.ContainsFunc(r.Timeline[i+1:], rule) || tr.To == "resolved",
			"phase A: %s fired and ended the phase %s", tr.Rule, tr.To)
	}
	r.check(slices.ContainsFunc(r.Timeline, func(tr SLOTimelineEntry) bool { return tr.To == "firing" && tr.Cursor > 0 }),
		"phase A: no firing transition carries a journal cursor exemplar")
	r.check(r.ForecastPredictedAt > 0 && r.ForecastPredictedAt < 1,
		"phase B: exhaustion predicted at fill fraction %.3f, want inside (0,1)", r.ForecastPredictedAt)
	r.check(r.ForecastLeadEvals >= 1, "phase B: forecaster gave no lead time before the table filled")
	r.check(r.ForecastAlertFired, "phase B: conntable-exhaustion alert never fired")
	r.check(r.GatePausedSteps >= 1, "phase C: rollout never held while the page fired")
	r.check(r.GateConverged && r.GateFinalGen == 2,
		"phase C: rollout did not converge at generation 2 (converged=%v gen=%d)", r.GateConverged, r.GateFinalGen)
}

// RunSLOSoak drives the three phases once. A failing run prints the
// scripts of phases A and B, in that order.
func RunSLOSoak(scale float64, seed int64) (*SLOSoakReport, error) {
	rep := &SLOSoakReport{Scale: scale, Seed: seed}
	for _, phase := range []func(*SLOSoakReport, int64) (*soak, error){sloBurn, sloForecast} {
		s, err := phase(rep, seed)
		if err == nil {
			err = s.play(seed)
		}
		if err != nil {
			return nil, fmt.Errorf("slo soak: %w", err)
		}
		rep.replay = append(rep.replay, s.ops)
	}
	if err := runSLOGate(rep); err != nil {
		return nil, fmt.Errorf("slo soak: %w", err)
	}
	return judge(rep, sloInvariants), nil
}

// SLO is the registered experiment over RunSLOSoak; it emits SLO_soak.json.
func SLO(scale float64, seed int64) (*Report, error) {
	return runSoak("slo", "SLO soak: burn-rate alerting, occupancy forecasting, fleet rollout gate", "SLO_soak.json",
		scale, seed, RunSLOSoak, func(rep *Report, r *SLOSoakReport) {
			rep.Printf("phase A: %d flows, %d evals, %d fire/resolve cycle(s), %d timeline transition(s)",
				r.BurnFlows, r.BurnEvals, r.BurnFireCycles, len(r.Timeline))
			rep.Printf("phase A: peak pending p99 %.3fms, peak insert pressure %.0f/s",
				1e3*r.BurnMaxPending, r.BurnMaxPressure)
			rep.Printf("phase B: capacity %d, exhaustion predicted at %.0f%% fill (tte %.1fs), %d eval(s) of lead, alert fired %v",
				r.ForecastCapacity, 100*r.ForecastPredictedAt, r.ForecastTTEAtPredict,
				r.ForecastLeadEvals, r.ForecastAlertFired)
			rep.Printf("phase C: rollout held %d step(s) under a firing page, converged=%v at generation %d",
				r.GatePausedSteps, r.GateConverged, r.GateFinalGen)
		})
}
