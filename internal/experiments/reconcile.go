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
	"net/netip"

	"repro/internal/cluster"
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
	recConverge  = 400 // round budget for the final convergence loop
)

// ReconcileReport is the machine-readable outcome written to
// RECONCILE_soak.json. Everything derives from virtual time and seeded
// randomness: same (scale, seed) ⇒ identical bytes.
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

// recTracer counts reconcile events by step on top of an inner tracer
// (NopTracer, or the registry under --metrics).
type recTracer struct {
	telemetry.Tracer
	counts *[8]uint64
}

func (t recTracer) OnReconcile(e telemetry.ReconcileEvent) {
	if int(e.Step) < len(t.counts) {
		t.counts[e.Step]++
	}
	t.Tracer.OnReconcile(e)
}

// recPoolFor returns generation g's DIP pool: the base pool with one slot
// swapped for a generation-specific DIP, so every rollout is exactly one
// pool update per switch.
func recPoolFor(g int) []string {
	dips := expPool(6)
	out := make([]string, len(dips))
	for i := range dips {
		out[i] = dips[i].String()
	}
	out[g%len(out)] = netip.AddrPortFrom(
		netip.AddrFrom4([4]byte{10, 9, 0, byte(g)}), 20).String()
	return out
}

// recSpecFor builds generation g's spec (Generation left 0: auto-assigned
// last+1 on apply).
func recSpecFor(g int) *intent.ClusterSpec {
	return &intent.ClusterSpec{
		Version: intent.SpecVersion,
		VIPs: []intent.VIPSpec{{
			VIP:  "20.0.0.1:80",
			Pool: recPoolFor(g),
		}},
	}
}

// RunReconcileSoak drives the declarative-churn soak once and returns its
// report. Same (scale, seed) ⇒ identical report.
//
// Each flow's serving member and shadow version are pinned once the
// exact-tuple shadow confirms it on the member that answered. A flow later
// served by another member was redirected by the ECMP spray reacting to the
// switch failure; §7 accepts those breaking PCC, so they are counted
// separately and excluded from the violation check. The restored member
// comes back cold and takes no traffic (rejoining it warm is the upgrade
// soak's business), so a redirect is permanent here.
func RunReconcileSoak(scale float64, seed int64) (*ReconcileReport, error) {
	ccfg := cluster.DefaultConfig(recMembers, soakConnTarget(scale))
	ccfg.Dataplane.Seed = uint64(seed)
	clu, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}

	counts := new([8]uint64)
	var inner telemetry.Tracer = telemetry.NopTracer{}
	var reg *telemetry.Registry
	if CollectTelemetry {
		reg = telemetry.NewRegistry()
		inner = reg
	}
	rc := intent.NewCluster(clu.Fleet(), intent.FleetConfig{
		Config: intent.Config{
			BaseBackoff: 200 * simtime.Microsecond,
			MaxBackoff:  2 * simtime.Millisecond,
			MaxRetries:  3,
			Tracer:      recTracer{Tracer: inner, counts: counts},
		},
		RolloutBackoff: simtime.Millisecond,
	})

	rep := &ReconcileReport{Scale: scale, Seed: seed, Members: recMembers}
	vip := expVIP()

	// Generation 1 converges before traffic starts (the bootstrap apply).
	if err := rc.SetSpec(0, recSpecFor(1)); err != nil {
		return nil, err
	}
	for i := 0; i < 4*recMembers && !rc.Step(0); i++ {
	}
	if !rc.Converged() {
		return nil, fmt.Errorf("reconcile: bootstrap never converged")
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
	inj := faults.NewInjector(plan, clusterFaultTarget{clu})
	if reg != nil {
		inj.SetTracer(reg)
	}

	tickTime := func(t int) simtime.Time { return simtime.Time(int64(t) * int64(recTick)) }
	// Arrivals come in bursts: recPerTick SYNs while the burst window is
	// open, then quiet until the next period.
	book := &flowBook{
		load: recLoadTicks, life: recLifeTicks, stride: recStride,
		perTick: recPerTick, burst: recBurstLen, period: recBurstGap,
	}
	gen := 1

	for t := 0; t < recLoadTicks+recLifeTicks; t++ {
		now := tickTime(t)
		inj.Advance(now)
		clu.Advance(now)

		// Spec churn: a new generation every recGenEvery ticks.
		if t > 0 && t%recGenEvery == 0 && gen < 1+recGens {
			gen++
			if err := rc.SetSpec(now, recSpecFor(gen)); err != nil {
				return nil, fmt.Errorf("reconcile: gen %d rejected: %w", gen, err)
			}
		}
		// The mid-rollout switch fault: writes against member 1 fail with
		// ErrSwitchDown until it reboots (empty) at recRestoreAt.
		if t == recFailAt {
			if err := clu.FailSwitch(1); err != nil {
				return nil, err
			}
		}
		if t == recRestoreAt {
			if err := clu.RestoreSwitch(1); err != nil {
				return nil, err
			}
		}
		// Out-of-band pool mutation on member 2 (an operator bypassing the
		// spec): PCC-preserving at the switch, caught and reverted by the
		// drift scan below.
		if t == recDriftAt {
			drifted := append(expPool(6), netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{10, 9, 9, 9}), 20))
			if err := clu.Member(2).RequestUpdate(now, vip, drifted); err != nil {
				return nil, err
			}
		}

		rc.Step(now)
		if t%100 == 0 {
			rc.DetectDrift(now)
		}

		// A flow whose tuple now sprays to a different member was redirected
		// by the switch failure — counted, not asserted.
		book.retire(t, func(i int, f *flow) {
			if f.pinned {
				m, v, ok := clu.ShadowVersion(expTuple(i))
				switch {
				case f.moved || (ok && m != f.member):
					rep.RedirectedFlows++
				case ok && v != f.version:
					rep.PCCViolations++
				}
			}
			clu.ConnEnd(now, expTuple(i))
		})
		book.traffic(t, func(i int, syn bool) {
			_, m, fwd := clu.Packet(now, flowPacket(i, syn))
			book.sent(fwd)
			if syn {
				return
			}
			f := &book.flows[i]
			if !f.pinned {
				if sm, v, ok := clu.ShadowVersion(expTuple(i)); ok && sm == m {
					f.member, f.version, f.pinned = sm, v, true
					book.established++
				}
			} else if m != f.member {
				f.moved = true
			}
		})
	}
	rep.FlowsStarted, rep.FlowsEstablished, rep.Packets, rep.Forwarded = book.counts()

	// Convergence loop, from the last tick's instant: the churn is over;
	// the fleet must reach the final generation — and a clean drift scan —
	// within recConverge rounds.
	now := tickTime(recLoadTicks + recLifeTicks - 1)
	converged := false
	rounds := 0
	for ; rounds < recConverge; rounds++ {
		clu.Advance(now)
		if rc.Step(now) && rc.DetectDrift(now) == 0 && rc.Converged() {
			converged = true
			break
		}
		if due, ok := rc.NextDue(); ok && due.After(now) {
			now = due
		} else {
			now = now.Add(recTick)
		}
	}
	rep.RoundsToConverge = rounds
	rep.ConvergedAtEnd = converged
	rep.FinalGeneration = rc.Generation()

	// Final pools: every member must serve exactly the last generation.
	want, err := recSpecFor(gen).Normalize(0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < clu.Switches(); i++ {
		obs, ok := clu.Target(i).ObservedPool(vip)
		if !ok || !intent.SamePool(obs, want.VIPs[vip].Pool) {
			rep.PoolMismatches++
		}
	}

	// Idempotency golden: re-submitting the final generation with
	// identical content must issue zero writes.
	var writesBefore uint64
	for i := 0; i < recMembers; i++ {
		writesBefore += rc.Member(i).Writes()
	}
	reapply := recSpecFor(gen)
	reapply.Generation = rc.Generation()
	if err := rc.SetSpec(now, reapply); err != nil {
		return nil, fmt.Errorf("reconcile: idempotent re-apply rejected: %w", err)
	}
	rc.Step(now)
	for i := 0; i < recMembers; i++ {
		rep.IdempotentWrites += rc.Member(i).Writes()
	}
	rep.IdempotentWrites -= writesBefore
	rep.Writes = writesBefore + rep.IdempotentWrites

	rep.Rounds = counts[telemetry.ReconcileRound]
	rep.Applies = counts[telemetry.ReconcileApply]
	rep.Noops = counts[telemetry.ReconcileNoop]
	rep.Retries = counts[telemetry.ReconcileRetry]
	rep.Rollbacks = counts[telemetry.ReconcileRollback]
	rep.Errors = counts[telemetry.ReconcileError]
	rep.DriftDetected = counts[telemetry.ReconcileDrift]
	rep.FaultsInjected, rep.FaultsByKind, rep.FaultsRemaining = faultTally(inj)
	rep.BucketsRedirected = clu.Redirected
	return judge(rep, reconcileInvariants), nil
}

// reconcileInvariants is the controller contract, checked against a
// finished run.
func reconcileInvariants(r *ReconcileReport) {
	if r.PCCViolations != 0 {
		r.fail("PCC broken: %d established flows changed pool version", r.PCCViolations)
	}
	if !r.ConvergedAtEnd {
		r.fail("fleet never converged within %d rounds of the final generation", recConverge)
	}
	if r.FinalGeneration != 1+recGens {
		r.fail("final generation %d, want %d", r.FinalGeneration, 1+recGens)
	}
	if r.PoolMismatches != 0 {
		r.fail("%d members not serving the final pool", r.PoolMismatches)
	}
	if r.IdempotentWrites != 0 {
		r.fail("idempotent re-apply issued %d writes", r.IdempotentWrites)
	}
	if r.Rollbacks == 0 {
		r.fail("mid-rollout switch failure never triggered a rollback")
	}
	if r.Retries == 0 {
		r.fail("no apply was ever retried")
	}
	if r.DriftDetected == 0 {
		r.fail("out-of-band mutation never detected as drift")
	}
	if r.BucketsRedirected == 0 {
		r.fail("switch failure redirected no spray buckets")
	}
	if r.FaultsRemaining != 0 {
		r.fail("%d fault actions never fired", r.FaultsRemaining)
	}
	if r.FlowsEstablished == 0 {
		r.fail("no flow ever established")
	}
	if r.Forwarded == 0 {
		r.fail("nothing forwarded")
	}
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
