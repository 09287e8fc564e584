package experiments

// Rolling-upgrade soak: an intent.Upgrader rolls a 3-switch cluster
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
	"fmt"
	"net/netip"

	"repro/internal/cluster"
	"repro/internal/dataplane"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Soak shape, in ticks of upTick virtual time. Traffic arrives in bursts
// with real quiet windows between them — the drain/rejoin cutovers only
// flip at a quiescent instant (transfer converged, donor and receivers
// with zero pending work), so the gaps are where handoffs complete.
const (
	upTick      = 100 * simtime.Microsecond
	upLoadTicks = 2800 // arrivals for 280 ms — the whole rollout under load
	upLifeTicks = 600  // each flow lives 60 ms
	upStride    = 16   // live flows revisit the data path every 16 ticks
	upMembers   = 3
	upPerTick   = 2   // SYNs per burst tick
	upBurstLen  = 20  // ticks of arrivals per burst
	upBurstGap  = 80  // burst period (quiet for upBurstGap-upBurstLen)
	upStartTick = 160 // the rollout begins mid-load
	upPaceTicks = 30  // one rollout step every 3 ms: a member's cycle
	//                       spans several bursts and pool updates, so its
	//                       out-of-service window is long enough for every
	//                       live flow to be served by a survivor meanwhile
	upUpdateEvery  = 200  // a PCC-preserving pool swap every 20 ms
	upUpdateWindow = 40   // arrivals this soon after a swap are mid-update
	upTailTicks    = 8000 // rollout budget after the load is over
)

// UpgradeReport is the machine-readable outcome written to
// UPGRADE_soak.json. Everything derives from virtual time and seeded
// randomness: same (scale, seed) ⇒ identical bytes.
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

// upCounts accumulates handoff telemetry for the report.
type upCounts struct {
	transfers, imported, chunks, deltas, retries, cancels uint64
}

// count tallies one handoff event.
func (c *upCounts) count(e telemetry.Event) {
	if e.Kind != telemetry.KindHandoff {
		return
	}
	switch e.HandoffStep {
	case telemetry.HandoffChunk:
		c.chunks++
	case telemetry.HandoffDelta:
		c.deltas += uint64(e.Deltas)
	case telemetry.HandoffRetry:
		c.retries++
	case telemetry.HandoffDone:
		c.transfers++
		c.imported += uint64(e.Entries)
	case telemetry.HandoffCancel:
		c.cancels++
	}
}

// upPoolFor returns generation g's DIP pool: the base pool with one slot
// swapped, so each swap is exactly one PCC-preserving update per switch.
func upPoolFor(g int) []dataplane.DIP {
	pool := expPool(6)
	pool[g%len(pool)] = netip.AddrPortFrom(
		netip.AddrFrom4([4]byte{10, 8, 0, byte(g)}), 20)
	return pool
}

// RunUpgradeSoak drives the rolling-upgrade soak once and returns its
// report. Same (scale, seed) ⇒ identical report. Each flow's DIP and
// member are pinned when the exact-tuple shadow first confirms it
// established.
func RunUpgradeSoak(scale float64, seed int64) (*UpgradeReport, error) {
	counts := &upCounts{}
	tracer := countingTracer{count: counts.count}
	if CollectTelemetry {
		tracer.inner = telemetry.NewRegistry()
	}

	ccfg := cluster.DefaultConfig(upMembers, soakConnTarget(scale))
	ccfg.Dataplane.Seed = uint64(seed)
	ccfg.Dataplane.Tracer = tracer
	clu, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}

	rep := &UpgradeReport{Scale: scale, Seed: seed, Members: upMembers}
	vip := expVIP()
	curPool := upPoolFor(1)
	if err := clu.AddVIP(0, vip, curPool); err != nil {
		return nil, err
	}

	// The rolling upgrade: the Upgrader drives the cluster's drain/rejoin
	// surface directly; Reannounce restores the freshly rebooted member's
	// VIP state with the pool of the moment.
	u := intent.NewUpgrader(clu, nil, intent.UpgradeConfig{
		Budget:       64,
		StallTimeout: 20 * simtime.Millisecond,
		BaseBackoff:  simtime.Millisecond,
		MaxBackoff:   10 * simtime.Millisecond,
		MaxRetries:   6,
		WarmTimeout:  5 * simtime.Millisecond,
		Reannounce: func(now simtime.Time, m int) error {
			return clu.ReannounceTo(now, m, map[dataplane.VIP][]dataplane.DIP{vip: curPool})
		},
		Tracer: tracer,
	})

	// applyPool lands a pool swap on every in-service member that has the
	// VIP announced; a member that is down or cold mid-rollout catches up
	// through the Reannounce above, which always carries the latest pool.
	applyPool := func(now simtime.Time, pool []dataplane.DIP) error {
		for i := 0; i < clu.Switches(); i++ {
			if !clu.Alive(i) || !clu.Dataplane(i).HasVIP(vip) {
				continue
			}
			if err := clu.Member(i).RequestUpdate(now, vip, pool); err != nil {
				return fmt.Errorf("upgrade: switch %d: %w", i, err)
			}
		}
		return nil
	}

	tickTime := func(t int) simtime.Time { return simtime.Time(int64(t) * int64(upTick)) }
	book := &flowBook{
		load: upLoadTicks, life: upLifeTicks, stride: upStride,
		perTick: upPerTick, burst: upBurstLen, period: upBurstGap,
	}
	gen := 1
	lastUpdate := -upUpdateWindow - 1

	for t := 0; ; t++ {
		now := tickTime(t)
		clu.Advance(now)

		if u.Done() && rep.RolloutTicks == 0 {
			rep.RolloutTicks = t - upStartTick
		}
		drained := t > upLoadTicks+upLifeTicks
		if drained && (u.Done() || t > upLoadTicks+upLifeTicks+upTailTicks) {
			break
		}

		// Pool churn: one slot swapped every upUpdateEvery ticks while
		// traffic still arrives. SYNs landing in the recording window are
		// pinned to the OLD version — state that exists only in their
		// switch's table, which the handoff must carry.
		if t > 0 && t%upUpdateEvery == 0 && t < upLoadTicks {
			gen++
			curPool = upPoolFor(gen)
			if err := applyPool(now, curPool); err != nil {
				return nil, err
			}
			rep.PoolUpdates++
			lastUpdate = t
		}

		// The rollout, one paced Step once it begins.
		if t >= upStartTick && t%upPaceTicks == 0 && !u.Done() {
			if _, err := u.Step(now); err != nil {
				return nil, fmt.Errorf("upgrade: rollout step at tick %d: %w", t, err)
			}
		}

		book.retire(t, func(i int, f *flow) {
			tup := expTuple(i)
			if f.pinned {
				if _, sdip, ok := clu.ShadowDIP(vip, tup); ok && sdip != f.dip {
					rep.PCCViolations++
				}
				if f.moved {
					rep.MovedFlows++
				}
			}
			clu.ConnEnd(now, tup)
		})
		book.traffic(t, func(i int, syn bool) {
			dip, m, fwd := clu.Packet(now, flowPacket(i, syn))
			book.sent(fwd)
			f := &book.flows[i]
			switch {
			case syn:
				f.midUpdate = t-lastUpdate < upUpdateWindow
			case !f.pinned:
				if sm, sdip, ok := clu.ShadowDIP(vip, expTuple(i)); ok {
					f.dip, f.member, f.pinned = sdip, sm, true
					book.established++
					if f.midUpdate {
						rep.MidUpdateEstablished++
					}
				}
			case !fwd:
				rep.Drops++
			default:
				if dip != f.dip {
					rep.PCCViolations++
				}
				if m != f.member {
					f.moved = true
				}
			}
		})
	}
	rep.FlowsStarted, rep.FlowsEstablished, rep.Packets, rep.Forwarded = book.counts()
	rep.RolloutDone = u.Done() && len(u.Failed()) == 0
	rep.Rollbacks = u.Rollbacks
	for i := 0; i < upMembers; i++ {
		rep.FinalPhases = append(rep.FinalPhases, u.Phase(i).String())
	}
	rep.BucketsMigrated = clu.Migrated
	rep.HandoffTransfers = counts.transfers
	rep.HandoffImported = counts.imported
	rep.HandoffChunks = counts.chunks
	rep.HandoffDeltas = counts.deltas
	rep.HandoffRetries = counts.retries
	rep.HandoffCancels = counts.cancels

	return judge(rep, upgradeInvariants), nil
}

// upgradeInvariants is the rollout contract, checked against a finished
// run.
func upgradeInvariants(r *UpgradeReport) {
	if r.PCCViolations != 0 {
		r.fail("PCC broken: %d established flows changed DIP", r.PCCViolations)
	}
	if r.Drops != 0 {
		r.fail("%d established-flow packets dropped during the rollout", r.Drops)
	}
	if !r.RolloutDone {
		r.fail("rollout did not finish cleanly: phases %v", r.FinalPhases)
	}
	for i, p := range r.FinalPhases {
		if p != "done" {
			r.fail("member %d finished in phase %q", i, p)
		}
	}
	if r.BucketsMigrated == 0 {
		r.fail("no spray bucket ever moved warm")
	}
	if r.HandoffTransfers == 0 || r.HandoffImported == 0 {
		r.fail("no connection state was ever handed off (transfers %d, imported %d)",
			r.HandoffTransfers, r.HandoffImported)
	}
	if r.MovedFlows == 0 {
		r.fail("no established flow was ever served by a second member")
	}
	if r.MidUpdateEstablished == 0 {
		r.fail("no flow established inside an update's recording window")
	}
	if r.PoolUpdates < 2 {
		r.fail("only %d pool updates landed", r.PoolUpdates)
	}
	if r.FlowsEstablished == 0 {
		r.fail("no flow ever established")
	}
	if r.Forwarded == 0 {
		r.fail("nothing forwarded")
	}
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
