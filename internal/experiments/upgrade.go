package experiments

// Rolling-upgrade soak: a silkroad.Upgrader rolls a 3-switch cluster
// through drain -> warm migrate -> upgrade -> rejoin, one member at a
// time, while pulsed traffic keeps arriving — including connections
// learned mid-pool-update, whose version pinning exists only in their
// switch's table and would break under a cold failover. Every established
// connection's DIP is pinned at establishment and checked against the
// exact-tuple shadow on every revisit and just before it dies: the soak
// demands ZERO PCC violations and zero forwarding drops across the whole
// rollout, because the handoff moves the exact table entries with the
// traffic. Emits UPGRADE_soak.json; the same seed must reproduce it byte
// for byte.

import (
	silkroad "repro"
	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Soak shape, in ticks of upTick virtual time. Traffic arrives in bursts
// with real quiet windows between them — the drain/rejoin cutovers only
// flip at a quiescent instant (transfer converged, donor and receivers
// with zero pending work), so the gaps are where handoffs complete. The
// fleet paces each transfer (a few records per donor pipe every few
// milliseconds), so a member's cycle spans several bursts and pool updates,
// and its out-of-service window is long enough for every live flow to be
// served by a survivor meanwhile.
const (
	upTick         = 100 * simtime.Microsecond
	upLoadTicks    = 2800 // arrivals for 280 ms — the whole rollout under load
	upLifeTicks    = 600  // each flow lives 60 ms
	upStride       = 16   // live flows revisit the data path every 16 ticks
	upMembers      = 3
	upPerTick      = 2    // SYNs per burst tick
	upBurstLen     = 20   // ticks of arrivals per burst
	upBurstGap     = 80   // burst period (quiet for upBurstGap-upBurstLen)
	upStartTick    = 1400 // the rollout begins mid-load
	upUpdateEvery  = 200  // a PCC-preserving pool swap every 20 ms
	upUpdateWindow = 40   // arrivals this soon after a swap are mid-update
	upTailTicks    = 8000 // rollout budget after the load is over
)

// UpgradeReport is the machine-readable outcome written to
// UPGRADE_soak.json.
type UpgradeReport struct {
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	Members int     `json:"members"`

	FlowsStarted         int    `json:"flows_started"`
	FlowsEstablished     int    `json:"flows_established"`
	MidUpdateEstablished int    `json:"mid_update_established"`
	Packets              uint64 `json:"packets"`
	Forwarded            uint64 `json:"forwarded"`
	Drops                int    `json:"established_flow_drops"`
	PoolUpdates          int    `json:"pool_updates"`

	RolloutDone  bool     `json:"rollout_done"`
	RolloutTicks int      `json:"rollout_ticks"`
	FinalPhases  []string `json:"final_phases"`
	Rollbacks    uint64   `json:"rollbacks"`

	BucketsMigrated uint64 `json:"buckets_migrated_warm"`
	MovedFlows      int    `json:"flows_moved_members"`

	HandoffTransfers uint64 `json:"handoff_transfers"`
	HandoffImported  uint64 `json:"handoff_entries_imported"`
	HandoffChunks    uint64 `json:"handoff_chunks"`
	HandoffDeltas    uint64 `json:"handoff_delta_replays"`
	HandoffRetries   uint64 `json:"handoff_import_retries"`
	HandoffCancels   uint64 `json:"handoff_cancels"`

	PCCViolations int `json:"pcc_violations"`

	verdict
}

// upgradeSoak builds the rolling-upgrade soak: the fleet, every member
// announcing the VIP, and the script, which attaches the rolling upgrade at
// upStartTick. The upgrade runs on the fleet's timeline and re-announces
// each freshly rebooted member with the pool its peers serve at that
// moment. The loop lasts until the load is over and the rollout done, or
// upTailTicks past the load.
func upgradeSoak(scale float64, seed int64) (*soak, *UpgradeReport, error) {
	tr := newSoakTracer()
	clu, err := silkroad.NewCluster(silkroad.ClusterConfig{Switches: upMembers, Switch: fleetMember(scale, seed, tr)})
	if err != nil {
		return nil, nil, err
	}
	rep := &UpgradeReport{Scale: scale, Seed: seed, Members: upMembers}
	for i := 0; i < upMembers; i++ {
		if err := clu.Switch(i).AddVIP(0, expVIP(), swapPool(8, 1)); err != nil {
			return nil, nil, err
		}
	}
	tg := &fleetTarget{Cluster: clu, warm: true, upgrade: silkroad.UpgradeConfig{
		StallTimeout: 20 * simtime.Millisecond,
		BaseBackoff:  simtime.Millisecond,
		MaxBackoff:   10 * simtime.Millisecond,
		MaxRetries:   6,
		WarmTimeout:  5 * simtime.Millisecond,
	}}
	horizon := upLoadTicks + upLifeTicks + upTailTicks
	s := newSoak(tg, tr, faults.Plan{}, upTick, horizon+1, upLifeTicks, upStride)
	s.until = func(t int) bool {
		if tg.upgrader == nil || !tg.upgrader.Done() {
			return false
		}
		if rep.RolloutTicks == 0 {
			rep.RolloutTicks = t - upStartTick
		}
		return t > upLoadTicks+upLifeTicks
	}

	// Pool churn: one slot swapped every upUpdateEvery ticks while traffic
	// still arrives. SYNs landing in the recording window are pinned to the
	// OLD version — state that exists only in their switch's table, which
	// the handoff must carry.
	var churn []soakOp
	for g := 2; (g-1)*upUpdateEvery < upLoadTicks; g++ {
		churn = append(churn, soakOp{at: (g - 1) * upUpdateEvery, kind: opChurn, gen: g})
	}
	s.ops = script(
		jitter(seed, pulses(upLoadTicks, upPerTick, upBurstLen, upBurstGap)),
		churn,
		[]soakOp{{at: upStartTick, kind: opUpgrade}},
	)
	s.finish = func() error {
		b := &s.book
		rep.FlowsStarted, rep.FlowsEstablished, rep.Packets, rep.Forwarded = b.counts()
		rep.MidUpdateEstablished, rep.Drops = b.midUpdate, b.drops
		rep.PCCViolations, rep.MovedFlows = b.pccViolations, b.moved
		u := tg.upgrader
		rep.RolloutDone = u.Done() && len(u.Failed()) == 0
		rep.Rollbacks = u.Rollbacks
		rep.PoolUpdates = tg.poolUpdates
		for i := 0; i < upMembers; i++ {
			rep.FinalPhases = append(rep.FinalPhases, u.Phase(i).String())
		}
		rep.BucketsMigrated = clu.Stats().Migrated
		rep.HandoffTransfers = tr.handoff[telemetry.HandoffDone]
		rep.HandoffImported = tr.Counter(telemetry.MetricHandoffImported).Load()
		rep.HandoffChunks = tr.Counter(telemetry.MetricHandoffChunks).Load()
		rep.HandoffDeltas = tr.Counter(telemetry.MetricHandoffDeltas).Load()
		rep.HandoffRetries = tr.Counter(telemetry.MetricHandoffRetries).Load()
		rep.HandoffCancels = tr.handoff[telemetry.HandoffCancel]
		tg.checkClocks(&rep.verdict)
		return nil
	}
	return s, rep, nil
}

// RunUpgradeSoak drives the rolling-upgrade soak once and returns its
// report. Same (scale, seed) ⇒ identical report. Each flow's DIP and
// member are pinned when the exact-tuple shadow first confirms it
// established, and every later answer is held to the pin.
func RunUpgradeSoak(scale float64, seed int64) (*UpgradeReport, error) {
	return runScripted(upgradeSoak, scale, seed, upgradeInvariants)
}

// upgradeInvariants is the rollout contract, checked against a finished
// run.
func upgradeInvariants(r *UpgradeReport) {
	r.check(r.PCCViolations == 0, "PCC broken: %d established flows changed DIP", r.PCCViolations)
	r.check(r.Drops == 0, "%d established-flow packets dropped during the rollout", r.Drops)
	r.check(r.RolloutDone, "rollout did not finish cleanly: phases %v", r.FinalPhases)
	for i, p := range r.FinalPhases {
		r.check(p == "done", "member %d finished in phase %q", i, p)
	}
	r.check(r.BucketsMigrated > 0, "no spray bucket ever moved warm")
	r.check(r.HandoffTransfers > 0 && r.HandoffImported > 0,
		"no connection state was ever handed off (transfers %d, imported %d)", r.HandoffTransfers, r.HandoffImported)
	r.check(r.MovedFlows > 0, "no established flow was ever served by a second member")
	r.check(r.MidUpdateEstablished > 0, "no flow established inside an update's recording window")
	r.check(r.PoolUpdates >= 2, "only %d pool updates landed", r.PoolUpdates)
	r.checkTraffic(r.FlowsEstablished, r.Forwarded)
}

// Upgrade is the registered experiment over RunUpgradeSoak; it emits
// UPGRADE_soak.json.
func Upgrade(scale float64, seed int64) (*Report, error) {
	return runSoak("upgrade", "Rolling-upgrade soak: warm handoff, zero dropped flows", "UPGRADE_soak.json",
		scale, seed, RunUpgradeSoak, func(rep *Report, r *UpgradeReport) {
			rep.Printf("rollout: %d members, done=%v in %d ticks  rollbacks %d  phases %v",
				r.Members, r.RolloutDone, r.RolloutTicks, r.Rollbacks, r.FinalPhases)
			rep.Printf("handoff: %d transfers  %d entries imported (%d chunks, %d delta replays, %d retries, %d cancels)  %d buckets moved warm",
				r.HandoffTransfers, r.HandoffImported, r.HandoffChunks, r.HandoffDeltas,
				r.HandoffRetries, r.HandoffCancels, r.BucketsMigrated)
			rep.Printf("flows %d (established %d, mid-update %d, moved members %d)  packets %d (forwarded %d)  pool updates %d",
				r.FlowsStarted, r.FlowsEstablished, r.MidUpdateEstablished, r.MovedFlows,
				r.Packets, r.Forwarded, r.PoolUpdates)
			rep.Printf("PCC violations %d  established-flow drops %d", r.PCCViolations, r.Drops)
		})
}
