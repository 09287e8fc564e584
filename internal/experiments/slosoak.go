package experiments

// SLO soak: the telemetry -> SLO -> alerting -> fleet-gate loop end to
// end, in three seeded phases.
//
// Phase A (burn): a two-pipe switch under steady connection churn takes a
// CPU brownout plus learning-channel digest loss from a fault plan. The
// insert path backs up, the burn-rate rules trip Pending -> Firing, the
// fault clears, and the alerts walk back to Resolved — each transition
// stamped with a flight-recorder journal cursor. The full alert timeline
// is the golden-tested artifact.
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
	"math/rand"
	"net/netip"
	"strings"

	silkroad "repro"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

const (
	sloTick      = simtime.Millisecond // workload step
	sloInterval  = 10 * simtime.Millisecond
	sloBurnStart = 100 // tick the faults land on
	sloBurnEnd   = 250 // tick the brownout lifts
	sloBurnTicks = 500 // phase A length
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

// sloBurnRules is phase A/C's alert policy, tuned so the seeded brownout
// deterministically walks both rules through a full fire/resolve cycle.
func sloBurnRules() []silkroad.SLORule {
	return []silkroad.SLORule{
		{
			Name: "insert-pressure", Severity: silkroad.SeverityPage,
			Threshold: 50, FireAfter: 2, ClearAfter: 3,
			Value: func(s silkroad.SLOSignals) float64 { return s.InsertPressure },
		},
		{
			Name: "pending-p99", Severity: silkroad.SeverityTicket,
			Threshold: 0.002, FireAfter: 2, ClearAfter: 3,
			Value: func(s silkroad.SLOSignals) float64 { return s.PendingP99 },
		},
	}
}

// sloSyn builds a distinct-flow SYN aimed at the soak VIP.
func sloSyn(i int) *netproto.Packet {
	return &netproto.Packet{
		Tuple: netproto.FiveTuple{
			Src:     netip.AddrFrom4([4]byte{10, 99, byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("20.0.0.1"),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
			Proto:   netproto.ProtoTCP,
		},
		TCPFlags: netproto.FlagSYN,
	}
}

func sloVIP() silkroad.VIP {
	return silkroad.NewVIP("20.0.0.1", 80, netproto.ProtoTCP)
}

// runSLOBurn is phase A.
func runSLOBurn(rep *SLOSoakReport, seed int64) error {
	cfg := silkroad.Defaults(200000)
	cfg.Pipes = 2
	cfg.Clock = silkroad.NewManualClock(0)
	cfg.Telemetry = silkroad.NewTelemetry()
	cfg.FlightRecorder = silkroad.NewFlightRecorder(silkroad.FlightRecorderConfig{})
	cfg.Controlplane.MaxInsertQueue = 64
	cfg.SLO = &silkroad.SLOConfig{
		Interval:      sloInterval,
		WindowSamples: 32,
		FastWindow:    2,
		SlowWindow:    5,
		Rules:         sloBurnRules(),
	}
	cfg.Faults = &silkroad.FaultPlan{
		Seed: uint64(seed),
		Events: []silkroad.FaultEvent{
			{At: simtime.Time(sloBurnStart * sloTick), Kind: silkroad.FaultCPUSlow,
				Pipe: -1, Scale: 0.02, Duration: simtime.Duration(sloBurnEnd-sloBurnStart) * sloTick},
			{At: simtime.Time(sloBurnStart * sloTick), Kind: silkroad.FaultDigestLoss,
				Pipe: -1, Scale: 0.3, Duration: simtime.Duration(sloBurnEnd-sloBurnStart) * sloTick},
		},
	}
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		return err
	}
	defer sw.Close()
	if err := sw.AddVIP(0, sloVIP(), silkroad.Pool("10.0.0.1:20", "10.0.0.2:20")); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	flow := 0
	var now simtime.Time
	for tick := 0; tick < sloBurnTicks; tick++ {
		// 30 new flows per millisecond, with a seeded jitter of repeat
		// packets from recent flows to keep the pipes busy.
		for i := 0; i < 30; i++ {
			sw.Process(now, sloSyn(flow))
			flow++
		}
		for i := 0; i < 10 && flow > 100; i++ {
			old := sloSyn(flow - 1 - rng.Intn(100))
			old.TCPFlags = netproto.FlagACK
			sw.Process(now, old)
		}
		now = now.Add(sloTick)
		sw.AdvanceTo(now)

		repNow := sw.SLO().Report()
		if repNow.Fast.PendingP99 > rep.BurnMaxPending {
			rep.BurnMaxPending = repNow.Fast.PendingP99
		}
		if repNow.Fast.InsertPressure > rep.BurnMaxPressure {
			rep.BurnMaxPressure = repNow.Fast.InsertPressure
		}
	}
	rep.BurnFlows = flow
	rep.BurnEvals = sw.SLO().Report().Evals

	for _, tr := range sw.SLO().History() {
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

// runSLOForecast is phase B.
func runSLOForecast(rep *SLOSoakReport) error {
	cfg := silkroad.Defaults(2000)
	cfg.Clock = silkroad.NewManualClock(0)
	cfg.Telemetry = silkroad.NewTelemetry()
	cfg.SLO = &silkroad.SLOConfig{
		Interval:       sloInterval,
		WindowSamples:  32,
		FastWindow:     2,
		SlowWindow:     5,
		ForecastWindow: 8,
	}
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		return err
	}
	defer sw.Close()
	if err := sw.AddVIP(0, sloVIP(), silkroad.Pool("10.0.0.1:20")); err != nil {
		return err
	}

	flow := 0
	var now simtime.Time
	predictEval := -1
	fullEval := -1
	for tick := 0; tick < 1500; tick++ {
		for i := 0; i < 5; i++ {
			sw.Process(now, sloSyn(flow))
			flow++
		}
		now = now.Add(sloTick)
		sw.AdvanceTo(now)

		r := sw.SLO().Report()
		if len(r.Pipes) == 0 {
			continue
		}
		p := r.Pipes[0]
		if rep.ForecastCapacity == 0 && p.Capacity > 0 {
			rep.ForecastCapacity = p.Capacity
		}
		if predictEval < 0 && p.TTESeconds >= 0 {
			predictEval = int(r.Evals)
			rep.ForecastPredictedAt = p.FillFrac
			rep.ForecastTTEAtPredict = p.TTESeconds
		}
		if fullEval < 0 && p.FillFrac >= 0.99 {
			fullEval = int(r.Evals)
			break
		}
	}
	if predictEval >= 0 && fullEval > predictEval {
		rep.ForecastLeadEvals = fullEval - predictEval
	}
	for _, a := range sw.SLO().Alerts() {
		if a.Rule == "conntable-exhaustion" && (a.State == "firing" || a.State == "resolved") {
			rep.ForecastAlertFired = true
		}
	}
	return nil
}

// runSLOGate is phase C.
func runSLOGate(rep *SLOSoakReport) error {
	cfg := silkroad.Defaults(10000)
	cfg.Clock = silkroad.NewManualClock(0)
	cfg.Telemetry = silkroad.NewTelemetry()
	cfg.SLO = &silkroad.SLOConfig{
		Interval:      sloInterval,
		WindowSamples: 16,
		FastWindow:    1,
		SlowWindow:    2,
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
	defer c.Close()

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
			if c.Reconcile(now) && c.Converged() {
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
				reg.OnInsert(telemetry.InsertEvent{Now: now, Outcome: telemetry.InsertRetry})
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
		c.Reconcile(now)
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
	for _, tr := range c.Switch(2).SLO().History() {
		if tr.To == "resolved" {
			rep.GateResumedCycles++
		}
	}
	return nil
}

// sloInvariants is the soak's promises, checked against a finished run.
func sloInvariants(r *SLOSoakReport) {
	if r.BurnFireCycles < 1 {
		r.fail("phase A: no firing->resolved cycle (timeline %d entries)", len(r.Timeline))
	}
	firingCursor := false
	for _, tr := range r.Timeline {
		if tr.To == "firing" && tr.Cursor > 0 {
			firingCursor = true
		}
	}
	if !firingCursor {
		r.fail("phase A: no firing transition carries a journal cursor exemplar")
	}
	if r.ForecastPredictedAt <= 0 || r.ForecastPredictedAt >= 1 {
		r.fail("phase B: exhaustion predicted at fill fraction %.3f, want inside (0,1)", r.ForecastPredictedAt)
	}
	if r.ForecastLeadEvals < 1 {
		r.fail("phase B: forecaster gave no lead time before the table filled")
	}
	if !r.ForecastAlertFired {
		r.fail("phase B: conntable-exhaustion alert never fired")
	}
	if r.GatePausedSteps < 1 {
		r.fail("phase C: rollout never held while the page fired")
	}
	if !r.GateConverged || r.GateFinalGen != 2 {
		r.fail("phase C: rollout did not converge at generation 2 (converged=%v gen=%d)", r.GateConverged, r.GateFinalGen)
	}
}

// RunSLOSoak drives the three phases once.
func RunSLOSoak(scale float64, seed int64) (*SLOSoakReport, error) {
	rep := &SLOSoakReport{Scale: scale, Seed: seed}
	if err := runSLOBurn(rep, seed); err != nil {
		return nil, fmt.Errorf("slo soak: %w", err)
	}
	if err := runSLOForecast(rep); err != nil {
		return nil, fmt.Errorf("slo soak: %w", err)
	}
	if err := runSLOGate(rep); err != nil {
		return nil, fmt.Errorf("slo soak: %w", err)
	}
	return judge(rep, sloInvariants), nil
}

// SLOTimelineString renders the phase-A alert timeline, one transition
// per line — the golden-file format.
func SLOTimelineString(rep *SLOSoakReport) string {
	var b strings.Builder
	for _, tr := range rep.Timeline {
		fmt.Fprintf(&b, "t=%-6dms %-18s %-10s -> %-10s cursor=%d\n",
			tr.AtMS, tr.Rule, tr.From, tr.To, tr.Cursor)
	}
	return b.String()
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
