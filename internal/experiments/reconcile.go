package experiments

// Reconcile soak: declarative spec churn rolled across a 3-switch cluster
// while traffic flows, with a mid-rollout switch failure (writes against
// it fail, the rollout rolls back and retries until the switch is
// restored), injected control-plane faults (CPU stalls, brownouts, digest
// loss) from internal/faults, and one out-of-band pool mutation repaired
// by drift detection. Asserts the controller contract: convergence within
// a bounded number of rounds after the last generation, zero PCC
// violations against the exact-tuple shadow, rollback + retry + drift all
// exercised, and an idempotent re-apply issuing zero writes. Emits
// RECONCILE_soak.json; the same seed must reproduce it byte for byte.

import (
	"fmt"

	silkroad "repro"
	"repro/internal/faults"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Soak shape, in ticks of recTick virtual time. Traffic arrives in bursts
// (recBurstLen on, then quiet until the period repeats) so the rolling
// drain gate — next switch only after the previous one's PendingWork hits
// zero — sees real quiet windows between real load, like a ToR between
// connection storms.
const (
	recTick      = 100 * simtime.Microsecond
	recLoadTicks = 1200 // arrivals for 120 ms
	recLifeTicks = 601  // each flow lives 60.1 ms
	recStride    = 16   // live flows revisit the data path every 16 ticks
	recMembers   = 3
	recPerTick   = 2   // SYNs per burst tick
	recBurstLen  = 20  // ticks of arrivals per burst
	recBurstGap  = 80  // burst period (quiet for recBurstGap-recBurstLen)
	recGenEvery  = 200 // a new spec generation every 20 ms
	recGens      = 5   // generations 2..6 land during the load phase
	recFailAt    = 350 // switch 1 fails at 35 ms (mid-churn)
	recRestoreAt = 850 // and reboots empty at 85 ms
	recDriftAt   = 1300
	recConverge  = 400 // fleet-step budget for the final convergence loop
)

// ReconcileReport is the machine-readable outcome written to
// RECONCILE_soak.json.
type ReconcileReport struct {
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	Members int     `json:"members"`

	FinalGeneration uint64 `json:"final_generation"`

	FlowsStarted     int    `json:"flows_started"`
	FlowsEstablished int    `json:"flows_established"`
	Packets          uint64 `json:"packets"`
	Forwarded        uint64 `json:"forwarded"`

	Rounds        uint64 `json:"reconcile_rounds"`
	Applies       uint64 `json:"reconcile_applies"`
	Noops         uint64 `json:"reconcile_noops"`
	Retries       uint64 `json:"reconcile_retries"`
	Rollbacks     uint64 `json:"reconcile_rollbacks"`
	Errors        uint64 `json:"reconcile_errors"`
	DriftDetected uint64 `json:"drift_detected"`
	Writes        uint64 `json:"target_writes"`

	FaultsInjected  uint64            `json:"faults_injected"`
	FaultsByKind    map[string]uint64 `json:"faults_by_kind"`
	FaultsRemaining int               `json:"faults_remaining"`

	BucketsRedirected uint64 `json:"buckets_redirected"`
	RedirectedFlows   int    `json:"redirected_flows"`
	PCCViolations     int    `json:"pcc_violations"`

	RoundsToConverge int    `json:"rounds_to_converge"`
	ConvergedAtEnd   bool   `json:"converged_at_end"`
	PoolMismatches   int    `json:"final_pool_mismatches"`
	IdempotentWrites uint64 `json:"idempotent_reapply_writes"`

	verdict
}

// recSpecFor builds generation g's spec (Generation left 0: auto-assigned
// last+1 on apply): the base pool with one slot swapped, so every rollout
// is exactly one pool update per switch.
func recSpecFor(g int) *intent.ClusterSpec {
	var pool []string
	for _, dip := range swapPool(9, g) {
		pool = append(pool, dip.String())
	}
	return &intent.ClusterSpec{
		Version: intent.SpecVersion,
		VIPs:    []intent.VIPSpec{{VIP: "20.0.0.1:80", Pool: pool}},
	}
}

// reconcileSoak builds the declarative-churn soak: the fleet, with
// generation 1 staged to converge at tick 0 before traffic starts, and the
// script. Arrivals come in bursts of recPerTick SYNs while the burst window
// is open, then quiet until the next period. The rollout runs on the
// fleet's timeline, which the loop advances every tick. After the last
// tick the run settles and is read into the report.
func reconcileSoak(scale float64, seed int64) (*soak, *ReconcileReport, error) {
	tr := newSoakTracer()
	clu, err := silkroad.NewCluster(silkroad.ClusterConfig{
		Switches: recMembers,
		Switch:   fleetMember(scale, seed, nil),
		Fleet: silkroad.FleetConfig{
			Config: intent.Config{
				BaseBackoff: 200 * simtime.Microsecond,
				MaxBackoff:  2 * simtime.Millisecond,
				MaxRetries:  3,
				Tracer:      tr,
			},
			RolloutBackoff: simtime.Millisecond,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &ReconcileReport{Scale: scale, Seed: seed, Members: recMembers}

	// Generation 1 converges at tick 0, before traffic starts.
	if _, err := clu.Apply(0, recSpecFor(1)); err != nil {
		return nil, nil, err
	}

	// Control-plane faults from internal/faults, landing inside the churn
	// window: CPU stalls and brownouts slow the very insertions the drain
	// gate waits on; digest loss stresses re-learning.
	ms := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
	plan := faults.Generate(faults.GenConfig{
		Seed:  uint64(seed),
		Start: simtime.Time(0).Add(ms(10)),
		End:   simtime.Time(0).Add(ms(100)),
		Pipes: recMembers,

		CPUStalls: 2, StallFor: ms(3),
		Brownouts: 2, BrownoutScale: 0.25, BrownoutFor: ms(10),
		DigestLossWindows: 1, DigestLossRate: 0.2, DigestLossFor: ms(10),
	})
	last := recLoadTicks + recLifeTicks - 1
	tg := &fleetTarget{Cluster: clu}
	s := newSoak(tg, tr, plan, recTick, last+1, recLifeTicks, recStride)
	s.excuse = true

	// The controller: a new spec generation every recGenEvery ticks, and a
	// drift scan every 100 ticks. Member 1 fails mid-rollout and reboots
	// empty; member 2's pool is edited out of band.
	gens := []soakOp{{at: 0, kind: opBootstrap}}
	for g := 2; g <= 1+recGens; g++ {
		gens = append(gens, soakOp{at: (g - 1) * recGenEvery, kind: opApply, gen: g})
	}
	s.ops = script(
		jitter(seed, pulses(recLoadTicks, recPerTick, recBurstLen, recBurstGap)),
		gens,
		[]soakOp{
			{at: recFailAt, kind: opFail, member: 1},
			{at: recRestoreAt, kind: opRestore, member: 1},
			{at: recDriftAt, kind: opEdit, member: 2},
		},
		every(0, last+1, 100, soakOp{kind: opScan}),
	)
	s.finish = func() error {
		if err := reconcileSettle(rep, clu, simtime.Time(int64(last)*int64(recTick))); err != nil {
			return err
		}
		rep.FlowsStarted, rep.FlowsEstablished, rep.Packets, rep.Forwarded = s.book.counts()
		rep.PCCViolations, rep.RedirectedFlows = s.book.pccViolations, s.book.moved
		rep.Rounds = tr.Counter(telemetry.MetricReconcileRounds).Load()
		rep.Applies = tr.Counter(telemetry.MetricReconcileApplies).Load()
		rep.Noops = tr.Counter(telemetry.MetricReconcileNoops).Load()
		rep.Retries = tr.Counter(telemetry.MetricReconcileRetries).Load()
		rep.Rollbacks = tr.Counter(telemetry.MetricReconcileRollbacks).Load()
		rep.Errors = tr.Counter(telemetry.MetricReconcileErrors).Load()
		rep.DriftDetected = tr.Counter(telemetry.MetricReconcileDrift).Load()
		rep.FaultsInjected, rep.FaultsByKind, rep.FaultsRemaining = s.faultTally()
		rep.BucketsRedirected = clu.Stats().Redirected
		tg.checkClocks(&rep.verdict)
		return nil
	}
	return s, rep, nil
}

// reconcileSettle closes the run once the churn is over: stepping from one
// fleet deadline to the next, the fleet must reach the final generation —
// and a clean drift scan — within recConverge steps, every member must
// serve exactly its pool, and re-submitting it with identical content must
// issue zero writes.
func reconcileSettle(rep *ReconcileReport, clu *silkroad.Cluster, now simtime.Time) error {
	steps := 0
	for ; steps < recConverge; steps++ {
		clu.AdvanceTo(now)
		if clu.Converged() && clu.DetectDrift(now) == 0 {
			rep.ConvergedAtEnd = true
			break
		}
		next, ok := clu.NextEventTime()
		if !ok {
			break
		}
		now = max(now, next)
	}
	rep.RoundsToConverge = steps
	rep.FinalGeneration = clu.Generation()

	final := 1 + recGens
	want, err := recSpecFor(final).Normalize(0)
	if err != nil {
		return err
	}
	vip := expVIP()
	for i := 0; i < clu.Switches(); i++ {
		obs, err := clu.Switch(i).Controlplane().TargetPool(vip)
		if !clu.Alive(i) || err != nil || !intent.SamePool(obs, want.VIPs[vip].Pool) {
			rep.PoolMismatches++
		}
	}

	writesBefore := clu.Writes()
	reapply := recSpecFor(final)
	reapply.Generation = clu.Generation()
	if _, err := clu.Apply(now, reapply); err != nil {
		return fmt.Errorf("reconcile: idempotent re-apply rejected: %w", err)
	}
	rep.Writes = clu.Writes()
	rep.IdempotentWrites = rep.Writes - writesBefore
	return nil
}

// RunReconcileSoak drives the declarative-churn soak once and returns its
// report. Same (scale, seed) ⇒ identical report.
//
// Each flow's serving member and shadow version are pinned once the
// exact-tuple shadow confirms it. A flow later served by another member was
// redirected by the ECMP spray reacting to the switch failure; §7 accepts
// those breaking PCC, so they are counted separately and excluded from the
// violation check. The restored member comes back cold and takes no traffic
// (rejoining it warm is the upgrade soak's business), so a redirect is
// permanent here.
func RunReconcileSoak(scale float64, seed int64) (*ReconcileReport, error) {
	return runScripted(reconcileSoak, scale, seed, reconcileInvariants)
}

// reconcileInvariants is the controller contract, checked against a
// finished run.
func reconcileInvariants(r *ReconcileReport) {
	r.check(r.PCCViolations == 0, "PCC broken: %d established flows changed pool version", r.PCCViolations)
	r.check(r.ConvergedAtEnd, "fleet never converged within %d rounds of the final generation", recConverge)
	r.check(r.FinalGeneration == 1+recGens, "final generation %d, want %d", r.FinalGeneration, 1+recGens)
	r.check(r.PoolMismatches == 0, "%d members not serving the final pool", r.PoolMismatches)
	r.check(r.IdempotentWrites == 0, "idempotent re-apply issued %d writes", r.IdempotentWrites)
	r.check(r.Rollbacks > 0, "mid-rollout switch failure never triggered a rollback")
	r.check(r.Retries > 0, "no apply was ever retried")
	r.check(r.DriftDetected > 0, "out-of-band mutation never detected as drift")
	r.check(r.BucketsRedirected > 0, "switch failure redirected no spray buckets")
	r.check(r.FaultsRemaining == 0, "%d fault actions never fired", r.FaultsRemaining)
	r.checkTraffic(r.FlowsEstablished, r.Forwarded)
}

// Reconcile is the registered experiment over RunReconcileSoak; it emits
// RECONCILE_soak.json.
func Reconcile(scale float64, seed int64) (*Report, error) {
	return runSoak("reconcile", "Reconcile soak: declarative spec churn, rolling updates, rollback", "RECONCILE_soak.json",
		scale, seed, RunReconcileSoak, func(rep *Report, r *ReconcileReport) {
			rep.Printf("generations %d  reconcile rounds %d  writes %d (applies %d, noops %d)",
				r.FinalGeneration, r.Rounds, r.Writes, r.Applies, r.Noops)
			rep.Printf("faults: injected %d %v  retries %d  rollbacks %d  errors %d  drift %d",
				r.FaultsInjected, r.FaultsByKind, r.Retries, r.Rollbacks, r.Errors, r.DriftDetected)
			rep.Printf("flows %d (established %d)  packets %d (forwarded %d)  redirected flows %d",
				r.FlowsStarted, r.FlowsEstablished, r.Packets, r.Forwarded, r.RedirectedFlows)
			rep.Printf("PCC violations %d  converged in %d rounds  idempotent re-apply writes %d",
				r.PCCViolations, r.RoundsToConverge, r.IdempotentWrites)
		})
}
