package experiments

// Chaos soak: connection churn under a seeded schedule of injected faults
// — correlated DIP failure bursts, switch-CPU stalls and brownouts, an
// SRAM squeeze that forces ErrTableFull, and learning-channel digest loss
// — with the graceful-degradation machinery (bounded insert queue,
// retry-with-backoff, occupancy-watermark degraded mode, BFD failover)
// absorbing the abuse. The run asserts the robustness invariants the
// design promises and emits them as CHAOS_soak.json; the same seed must
// reproduce the report byte for byte.

import (
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/simtime"
	"repro/internal/telemetry"
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
// Everything in it is derived from virtual time and seeded randomness, so
// the same (scale, seed) must produce identical bytes.
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
	dcfg := dataplane.DefaultConfig(soakConnTarget(scale))
	dcfg.Seed = uint64(seed)
	dcfg.DegradedHighWatermark = 0.85
	dcfg.DegradedLowWatermark = 0.60
	ccfg := ctrlplane.DefaultConfig()
	ccfg.MaxInsertQueue = chaosQueueMax
	ccfg.MaxInsertRetries = 3
	pcfg := pipes.Config{Pipes: 2, Dataplane: dcfg, Controlplane: ccfg}
	var reg *telemetry.Registry
	if CollectTelemetry {
		reg = telemetry.NewRegistry()
		pcfg.Tracer = reg
	}
	eng, err := pipes.New(pcfg)
	if err != nil {
		return nil, err
	}
	pool := expPool(8)
	if err := eng.AddVIP(0, expVIP(), pool, 0); err != nil {
		return nil, err
	}

	rep := &ChaosReport{
		Scale: scale, Seed: seed, Pipes: eng.NumPipes(), QueueBound: chaosQueueMax,
	}
	perPipeCap := 0
	for p := 0; p < eng.NumPipes(); p++ {
		eng.Inspect(p, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			_, capa := dp.OccupancyInfo()
			rep.Capacity += capa
			if capa > perPipeCap {
				perPipeCap = capa
			}
		})
	}

	// The fault schedule: everything lands in [20 ms, 120 ms], inside the
	// loaded phase. The table squeeze caps each pipe well below its live
	// occupancy, so queued insertions hit ErrTableFull and the shrunken
	// watermarks force degraded mode even if churn alone did not.
	ms := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
	plan := faults.Generate(faults.GenConfig{
		Seed:  uint64(seed),
		Start: simtime.Time(0).Add(ms(20)),
		End:   simtime.Time(0).Add(ms(120)),
		Pipes: eng.NumPipes(),

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
	inj := faults.NewInjector(plan, eng)
	if reg != nil {
		inj.SetTracer(reg)
	}

	// BFD-style health checking rides the injected DIP outages: 5 ms
	// probes with a fail threshold of 3 detect a 30 ms outage mid-way and
	// re-add the DIP two clean probes after it recovers.
	hcfg := health.Config{
		Interval:         ms(5),
		FailThreshold:    3,
		RecoverThreshold: 2,
		ProbeBytes:       100,
	}
	hc := health.New(hcfg, eng, inj.WrapProbe(nil))
	for _, dip := range pool {
		hc.Watch(expVIP(), dip)
	}

	// Flow arrival rate: size the steady-state flow population to the
	// chip's ConnTable capacity, so occupancy climbs through the high
	// watermark on its own. A tick's packets go out as one batch.
	book := &flowBook{
		load: chaosLoadTicks, life: chaosLifeTicks, stride: chaosStride,
		perTick: max(rep.Capacity/chaosLifeTicks, 1), burst: 1, period: 1,
	}
	var (
		batch    []*netproto.Packet
		batchIdx []int
	)
	send := func(i int, syn bool) {
		batch = append(batch, flowPacket(i, syn))
		batchIdx = append(batchIdx, i)
	}
	degradedNow := func() bool {
		d := false
		for p := 0; p < eng.NumPipes(); p++ {
			eng.Inspect(p, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
				d = d || dp.Degraded()
			})
		}
		return d
	}
	// shadowVersion reads flow i's pinned pool version through the CPU's
	// exact-tuple shadow — the digest-FP-proof view of the ConnTable.
	shadowVersion := func(i int) (uint32, bool) {
		tup := expTuple(i)
		var (
			v  uint32
			ok bool
		)
		eng.Inspect(eng.PipeOf(tup), func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			v, ok = dp.LookupConn(tup)
		})
		return v, ok
	}
	runBatch := func(now simtime.Time) {
		forwarded := book.forwarded
		for j, r := range eng.ProcessBatch(now, batch) {
			book.sent(r.Verdict == dataplane.VerdictForward)
			if !r.ConnHit {
				continue
			}
			i := batchIdx[j]
			f := &book.flows[i]
			switch {
			case !f.hit:
				f.hit, f.dip = true, r.DIP
				book.established++
			case !f.moved && r.DIP != f.dip:
				f.moved = true
				rep.MisforwardedFlows++
			}
			if !f.pinned {
				if v, ok := shadowVersion(i); ok {
					f.version, f.pinned = v, true
				}
			}
		}
		if degradedNow() {
			rep.ForwardedWhileDegraded += book.forwarded - forwarded
		}
		batch, batchIdx = batch[:0], batchIdx[:0]
	}

	for t := 0; t < chaosLoadTicks+chaosLifeTicks; t++ {
		now := simtime.Time(int64(t) * int64(chaosTick))
		inj.Advance(now)
		hc.Advance(now)
		eng.Advance(now)
		book.retire(t, func(i int, f *flow) {
			if f.pinned {
				if v, ok := shadowVersion(i); ok && v != f.version {
					rep.PCCViolations++
				}
			}
			eng.EndConnection(now, expTuple(i))
		})
		book.traffic(t, send)
		runBatch(now)
	}

	// Drain: every transient fault has reverted by now; let the CPUs chew
	// through backoffs and retries, the checker re-add recovered DIPs, and
	// the aged-out flows disappear.
	drainAt := simtime.Time(int64(chaosLoadTicks+chaosLifeTicks) * int64(chaosTick)).Add(ms(150))
	inj.Advance(drainAt)
	hc.Advance(drainAt)
	eng.Advance(drainAt)

	// Degraded mode is evaluated lazily on the miss path, so a handful of
	// fresh flows probe the exit transition (and must be served normally).
	book.arrive(chaosLoadTicks+chaosLifeTicks, chaosProbes, send)
	runBatch(drainAt)
	end := drainAt.Add(ms(50))
	hc.Advance(end)
	eng.Advance(end)

	rep.FlowsStarted, rep.FlowsEstablished, rep.Packets, rep.Forwarded = book.counts()
	st := eng.Stats()
	rep.DegradedPackets = st.Dataplane.DegradedPackets
	rep.DegradedTransitions = st.Dataplane.DegradedTransitions
	rep.Inserted = st.Controlplane.Inserted
	rep.InsertRetries = st.Controlplane.InsertRetries
	rep.InsertSheds = st.Controlplane.InsertSheds
	rep.Overflows = st.Controlplane.Overflows
	rep.MaxInsertQueue = st.Controlplane.MaxInsertQueue
	rep.FaultsInjected, rep.FaultsByKind, rep.FaultsRemaining = faultTally(inj)
	hm := hc.Metrics()
	rep.Failovers, rep.Recoveries = hm.Failovers, hm.Recoveries
	for p := 0; p < eng.NumPipes(); p++ {
		eng.Inspect(p, func(dp *dataplane.Switch, cp *ctrlplane.ControlPlane) {
			rep.QueueAfterDrain += cp.QueueDepth()
			rep.LearnAfterDrain += dp.LearnFilter().Len()
			rep.DigestsLost += dp.LearnFilter().Lost
			rep.DegradedAtEnd = rep.DegradedAtEnd || dp.Degraded()
		})
	}
	return judge(rep, chaosInvariants), nil
}

// chaosInvariants is the robustness contract, checked against a finished
// run.
func chaosInvariants(r *ChaosReport) {
	if r.PCCViolations != 0 {
		r.fail("PCC broken: %d installed flows changed pool version", r.PCCViolations)
	}
	// Digest false positives misforward at the digest collision rate; the
	// invariant is that aliasing stays rare, not that it never happens.
	if r.MisforwardedFlows*50 > r.FlowsEstablished {
		r.fail("digest-FP misforwards above 2%% of flows (%d of %d)",
			r.MisforwardedFlows, r.FlowsEstablished)
	}
	if r.MaxInsertQueue > r.QueueBound {
		r.fail("insert queue peaked at %d, above the %d bound", r.MaxInsertQueue, r.QueueBound)
	}
	if r.QueueAfterDrain != 0 || r.LearnAfterDrain != 0 {
		r.fail("pending entries leaked: queue=%d learn=%d after drain", r.QueueAfterDrain, r.LearnAfterDrain)
	}
	if r.FaultsRemaining != 0 {
		r.fail("%d fault actions never fired", r.FaultsRemaining)
	}
	if r.DegradedPackets == 0 || r.ForwardedWhileDegraded == 0 {
		r.fail("degraded mode never served traffic (degraded_packets=%d, forwarded_while_degraded=%d)",
			r.DegradedPackets, r.ForwardedWhileDegraded)
	}
	if r.DegradedAtEnd {
		r.fail("switch still degraded after the load cleared")
	}
	if r.DegradedTransitions < 2 {
		r.fail("degraded_transitions=%d: never both entered and exited", r.DegradedTransitions)
	}
	if r.InsertRetries == 0 || r.InsertSheds == 0 {
		r.fail("pressure paths unexercised (retries=%d, sheds=%d)", r.InsertRetries, r.InsertSheds)
	}
	if r.DigestsLost == 0 {
		r.fail("digest-loss windows dropped nothing")
	}
	if r.Failovers == 0 || r.Recoveries == 0 {
		r.fail("health checker idle (failovers=%d, recoveries=%d)", r.Failovers, r.Recoveries)
	}
	if r.FlowsEstablished == 0 {
		r.fail("no flow ever established")
	}
	if r.Forwarded == 0 {
		r.fail("nothing forwarded")
	}
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
