package experiments

// Chaos soak: connection churn on a two-pipe silkroad.Switch, built by
// NewSwitch as silkroadd builds its own, under a seeded schedule of
// injected faults — correlated DIP failure bursts, switch-CPU stalls and
// brownouts, an SRAM squeeze that forces ErrTableFull, and learning-channel
// digest loss — with the graceful-degradation machinery (bounded insert
// queue, retry-with-backoff, occupancy-watermark degraded mode, BFD
// failover through the switch's own health checker) absorbing the abuse.
// It is a script on the soak driver against a switchTarget. The run
// asserts the robustness invariants the design promises and emits them as
// CHAOS_soak.json; the same seed must reproduce the report byte for byte.

import (
	silkroad "repro"
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/simtime"
)

// Soak shape, in ticks of chaosTick virtual time. Flows start at a steady
// rate for chaosLoadTicks, each living chaosLifeTicks before its
// connection ends; the fault window sits inside the loaded phase so every
// fault lands while the switch is busy.
const (
	chaosTick      = 100 * simtime.Microsecond
	chaosLoadTicks = 1600 // flows keep starting for 160 ms
	chaosLifeTicks = 800  // each flow lives 80 ms
	chaosStride    = 16   // each live flow sends a packet every 16 ticks
	chaosQueueMax  = 64   // MaxInsertQueue under test
	chaosProbes    = 64   // fresh flows probing degraded-exit after drain
)

// ChaosReport is the machine-readable outcome written to CHAOS_soak.json.
type ChaosReport struct {
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Pipes      int     `json:"pipes"`
	QueueBound int     `json:"queue_bound"`
	// Capacity is the chip-wide effective ConnTable capacity at start; the
	// workload is sized to it so the occupancy watermarks are crossed.
	Capacity int `json:"conn_capacity"`

	FlowsStarted     int    `json:"flows_started"`
	FlowsEstablished int    `json:"flows_established"`
	Packets          uint64 `json:"packets"`
	Forwarded        uint64 `json:"forwarded"`

	FaultsInjected uint64            `json:"faults_injected"`
	FaultsByKind   map[string]uint64 `json:"faults_by_kind"`
	Failovers      uint64            `json:"failovers"`
	Recoveries     uint64            `json:"recoveries"`

	DegradedPackets        uint64 `json:"degraded_packets"`
	DegradedTransitions    uint64 `json:"degraded_transitions"`
	ForwardedWhileDegraded uint64 `json:"forwarded_while_degraded"`
	Inserted               uint64 `json:"inserted"`
	InsertRetries          uint64 `json:"insert_retries"`
	InsertSheds            uint64 `json:"insert_sheds"`
	Overflows              uint64 `json:"overflows"`
	MaxInsertQueue         int    `json:"max_insert_queue"`
	DigestsLost            uint64 `json:"digests_lost"`

	PCCViolations     int  `json:"pcc_violations"`
	MisforwardedFlows int  `json:"misforwarded_flows"`
	QueueAfterDrain   int  `json:"queue_after_drain"`
	LearnAfterDrain   int  `json:"learn_after_drain"`
	FaultsRemaining   int  `json:"faults_remaining"`
	DegradedAtEnd     bool `json:"degraded_at_end"`

	verdict
}

// chaosSoak builds the churn-under-faults soak: a two-pipe switch, its
// report's sizing, and the script. Flows arrive on every tick of the load
// phase at a rate that sizes the steady-state population to the chip's
// ConnTable capacity, so occupancy climbs through the high watermark on its
// own.
func chaosSoak(scale float64, seed int64) (*soak, *ChaosReport, error) {
	tr := newSoakTracer()
	cfg := silkroad.Defaults(soakConnTarget(scale))
	cfg.Pipes = 2
	cfg.Clock = silkroad.NewManualClock(0)
	cfg.Dataplane.Seed = uint64(seed)
	cfg.Dataplane.DegradedHighWatermark = 0.85
	cfg.Dataplane.DegradedLowWatermark = 0.60
	cfg.Dataplane.Tracer = tr
	cfg.Controlplane.MaxInsertQueue = chaosQueueMax
	cfg.Controlplane.MaxInsertRetries = 3
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		return nil, nil, err
	}
	pool := expPool(8)
	if err := sw.AddVIP(0, expVIP(), pool); err != nil {
		return nil, nil, err
	}

	rep := &ChaosReport{
		Scale: scale, Seed: seed, Pipes: sw.Pipes(), QueueBound: chaosQueueMax,
	}
	for _, p := range sw.DegradedState().Pipes {
		rep.Capacity += p.Capacity
	}
	perPipeCap := rep.Capacity / sw.Pipes() // the pipes split the chip's ConnTable evenly

	// The fault schedule: everything lands in [20 ms, 120 ms], inside the
	// loaded phase. The table squeeze caps each pipe well below its live
	// occupancy, so queued insertions hit ErrTableFull and the shrunken
	// watermarks force degraded mode even if churn alone did not.
	ms := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
	plan := faults.Generate(faults.GenConfig{
		Seed:  uint64(seed),
		Start: simtime.Time(0).Add(ms(20)),
		End:   simtime.Time(0).Add(ms(120)),
		Pipes: sw.Pipes(),

		DIPs: pool, DIPBursts: 2, BurstSize: 3, DIPDownFor: ms(30),
		CPUStalls: 2, StallFor: ms(6),
		Brownouts: 2, BrownoutScale: 0.25, BrownoutFor: ms(20),
		TableSqueezes: 1, TableLimit: perPipeCap * 2 / 5, SqueezeFor: ms(30),
		DigestLossWindows: 2, DigestLossRate: 0.3, DigestLossFor: ms(15),
	})
	// One extra squeeze is pinned early in the load phase, while learning
	// is still hot: whatever the seed does with the random schedule, the
	// insertions pending at 25 ms must hit a capped table and retry. (A
	// randomly-placed squeeze can land after churn has already degraded
	// the switch, when no insertions are in flight to fail.)
	plan.Events = append(plan.Events,
		faults.Event{
			At: simtime.Time(0).Add(ms(25)), Kind: faults.TableLimit, Pipe: -1,
			Duration: ms(30), Limit: perPipeCap / 10,
		},
		// Likewise one digest-loss window before the storm, while every new
		// flow still offers a digest — a random window can fall entirely
		// inside a degraded stretch, where there is nothing to lose.
		faults.Event{
			At: simtime.Time(0).Add(ms(10)), Kind: faults.DigestLoss, Pipe: -1,
			Duration: ms(10), Scale: 0.3,
		},
	)
	tg := &switchTarget{Switch: sw, Target: sw.Engine()}
	s := newSoak(tg, tr, plan, chaosTick, chaosLoadTicks+chaosLifeTicks, chaosLifeTicks, chaosStride)

	// BFD-style health checking rides the injected DIP outages: 5 ms
	// probes with a fail threshold of 3 detect a 30 ms outage mid-way and
	// re-add the DIP two clean probes after it recovers. The switch is the
	// checker's pool manager, and its runtime runs the probe rounds in time
	// order with the engine's work.
	hc := sw.NewHealthChecker(silkroad.HealthConfig{
		Interval:         ms(5),
		FailThreshold:    3,
		RecoverThreshold: 2,
		ProbeBytes:       100,
	}, s.inj.WrapProbe(nil))
	for _, dip := range pool {
		hc.Watch(expVIP(), dip)
	}

	// Drain: 150 ms after the last flow ends every transient fault has
	// reverted, the CPUs have chewed through backoffs and retries, and the
	// checker has re-added recovered DIPs. Degraded mode is evaluated
	// lazily on the miss path, so a pulse of fresh flows then probes the
	// exit transition (and must be served normally); 50 ms later the run
	// settles.
	drain := chaosLoadTicks + chaosLifeTicks + int(ms(150)/chaosTick)
	s.ops = script(
		pulses(chaosLoadTicks, max(rep.Capacity/chaosLifeTicks, 1), 1, 1),
		[]soakOp{{at: drain, arrive: chaosProbes}, {at: drain + int(ms(50)/chaosTick)}},
	)
	s.finish = func() error {
		rep.FlowsStarted, rep.FlowsEstablished, rep.Packets, rep.Forwarded = s.book.counts()
		rep.PCCViolations, rep.MisforwardedFlows = s.book.pccViolations, s.book.moved
		rep.ForwardedWhileDegraded = tg.fwdDegraded
		st := sw.Stats()
		rep.DegradedPackets = st.Dataplane.DegradedPackets
		rep.DegradedTransitions = st.Dataplane.DegradedTransitions
		rep.Inserted = st.Controlplane.Inserted
		rep.InsertRetries = st.Controlplane.InsertRetries
		rep.InsertSheds = st.Controlplane.InsertSheds
		rep.Overflows = st.Controlplane.Overflows
		rep.MaxInsertQueue = st.Controlplane.MaxInsertQueue
		rep.FaultsInjected, rep.FaultsByKind, rep.FaultsRemaining = s.faultTally()
		hm := hc.Metrics()
		rep.Failovers, rep.Recoveries = hm.Failovers, hm.Recoveries
		for p := 0; p < sw.Pipes(); p++ {
			sw.Engine().Inspect(p, func(dp *dataplane.Switch, cp *ctrlplane.ControlPlane) {
				rep.QueueAfterDrain += cp.QueueDepth()
				rep.LearnAfterDrain += dp.LearnFilter().Len()
				rep.DigestsLost += dp.LearnFilter().Lost
			})
		}
		rep.DegradedAtEnd = sw.DegradedState().Degraded
		return nil
	}
	return s, rep, nil
}

// RunChaosSoak drives the churn-under-faults soak once and returns its
// report. Same (scale, seed) ⇒ identical report.
//
// Each flow is tracked two ways. The PCC ground truth is its pool version
// read through the exact-tuple CPU shadow (LookupConn), which digest false
// positives cannot touch: once pinned, the version must never change while
// the entry lives. The DIP of its ConnTable hits is tracked separately — a
// change there is a digest-FP misforward (an aliased entry answered), which
// the paper accepts at the digest's collision rate, so it is bounded rather
// than forbidden.
func RunChaosSoak(scale float64, seed int64) (*ChaosReport, error) {
	return runScripted(chaosSoak, scale, seed, chaosInvariants)
}

// chaosInvariants is the robustness contract, checked against a finished
// run.
func chaosInvariants(r *ChaosReport) {
	r.check(r.PCCViolations == 0, "PCC broken: %d installed flows changed pool version", r.PCCViolations)
	// Digest false positives misforward at the digest collision rate; the
	// invariant is that aliasing stays rare, not that it never happens.
	r.check(r.MisforwardedFlows*50 <= r.FlowsEstablished, "digest-FP misforwards above 2%% of flows (%d of %d)",
		r.MisforwardedFlows, r.FlowsEstablished)
	r.check(r.MaxInsertQueue <= r.QueueBound, "insert queue peaked at %d, above the %d bound", r.MaxInsertQueue, r.QueueBound)
	r.check(r.QueueAfterDrain == 0 && r.LearnAfterDrain == 0, "pending entries leaked: queue=%d learn=%d after drain",
		r.QueueAfterDrain, r.LearnAfterDrain)
	r.check(r.FaultsRemaining == 0, "%d fault actions never fired", r.FaultsRemaining)
	r.check(r.DegradedPackets > 0 && r.ForwardedWhileDegraded > 0,
		"degraded mode never served traffic (degraded_packets=%d, forwarded_while_degraded=%d)",
		r.DegradedPackets, r.ForwardedWhileDegraded)
	r.check(!r.DegradedAtEnd, "switch still degraded after the load cleared")
	r.check(r.DegradedTransitions >= 2, "degraded_transitions=%d: never both entered and exited", r.DegradedTransitions)
	r.check(r.InsertRetries > 0 && r.InsertSheds > 0, "pressure paths unexercised (retries=%d, sheds=%d)",
		r.InsertRetries, r.InsertSheds)
	r.check(r.DigestsLost > 0, "digest-loss windows dropped nothing")
	r.check(r.Failovers > 0 && r.Recoveries > 0, "health checker idle (failovers=%d, recoveries=%d)", r.Failovers, r.Recoveries)
	r.checkTraffic(r.FlowsEstablished, r.Forwarded)
}

// Chaos is the registered experiment over RunChaosSoak; it emits
// CHAOS_soak.json.
func Chaos(scale float64, seed int64) (*Report, error) {
	return runSoak("chaos", "Chaos soak: fault injection under churn, degradation invariants", "CHAOS_soak.json",
		scale, seed, RunChaosSoak, func(rep *Report, r *ChaosReport) {
			rep.Printf("flows %d (established %d)  packets %d (forwarded %d)",
				r.FlowsStarted, r.FlowsEstablished, r.Packets, r.Forwarded)
			rep.Printf("faults injected %d %v  failovers %d recoveries %d",
				r.FaultsInjected, r.FaultsByKind, r.Failovers, r.Recoveries)
			rep.Printf("degraded: packets %d, transitions %d, forwarded-while-degraded %d",
				r.DegradedPackets, r.DegradedTransitions, r.ForwardedWhileDegraded)
			rep.Printf("pressure: retries %d sheds %d overflows %d queue-peak %d/%d digests-lost %d",
				r.InsertRetries, r.InsertSheds, r.Overflows, r.MaxInsertQueue, r.QueueBound, r.DigestsLost)
			rep.Printf("PCC violations %d  digest-FP misforwarded flows %d", r.PCCViolations, r.MisforwardedFlows)
		})
}
