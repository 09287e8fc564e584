package ctrlplane

import (
	"repro/internal/dataplane"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// traceUpdateStep emits one KindUpdateStep event (no-op when untraced),
// capturing the version bump and the before/after pools as the journal's
// state delta.
func (cp *ControlPlane) traceUpdateStep(now simtime.Time, vc *vipCtl,
	step telemetry.UpdateStep, reqAt, execAt simtime.Time, prevVer, newVer uint32) {
	if cp.tracer == nil {
		return
	}
	cp.tracer.Trace(telemetry.Event{
		Kind: telemetry.KindUpdateStep, Now: now, Pipe: cp.pipe, VIP: cp.sw.VIPTelemetry(vc.vip),
		UpdateStep: step, ReqAt: reqAt, ExecAt: execAt,
		Key:         vc.vip.TelemetryKey(),
		PrevVersion: prevVer,
		Version:     newVer,
		Before:      clone(vc.pools[prevVer]),
		After:       clone(vc.pools[newVer]),
	})
}

// maybeStartUpdate begins the next queued update if the VIP is idle.
func (cp *ControlPlane) maybeStartUpdate(now simtime.Time, vc *vipCtl) {
	if vc.state != updIdle || len(vc.queued) == 0 {
		return
	}
	req := vc.queued[0]
	vc.queued = vc.queued[1:]
	if samePool(req.pool, vc.pools[vc.curVer]) {
		cp.metrics.UpdatesCoalesced++
		cp.maybeStartUpdate(now, vc)
		return
	}
	// Diff the target against the current pool: DIPs leaving service mark
	// dead slots in every active version that still references them (their
	// connections are dying with the DIP, so the slot may be rewritten).
	removed, added := poolDiff(vc.pools[vc.curVer], req.pool)
	for _, d := range removed {
		for v, pool := range vc.pools {
			for i, pd := range pool {
				if pd == d {
					if vc.deadSlots[v] == nil {
						vc.deadSlots[v] = map[int]bool{}
					}
					vc.deadSlots[v][i] = true
				}
			}
		}
	}
	newVer, newPool, reused, ok := cp.chooseVersion(vc, req.pool, added)
	if !ok {
		// All version numbers are pinned by live connections: re-queue and
		// retry as versions retire (the paper's "very rare" exhaustion).
		cp.metrics.VersionExhaustions++
		vc.queued = append([]updateReq{req}, vc.queued...)
		return
	}
	vc.pools[newVer] = clone(newPool)
	if len(vc.pools) > vc.maxActive {
		vc.maxActive = len(vc.pools)
	}
	if err := cp.sw.WritePool(vc.vip, newVer, newPool); err != nil {
		panic("ctrlplane: WritePool: " + err.Error())
	}
	if reused {
		cp.metrics.VersionReuses++
		delete(vc.deadSlots, newVer)
	} else {
		cp.metrics.VersionAllocs++
		vc.versionsAllocated++
	}

	if cp.sw.Config().DisableTransit {
		// The "SilkRoad without TransitTable" ablation (Figure 16): swap
		// immediately; pending connections are exposed.
		prev := vc.curVer
		vc.curVer = newVer
		if err := cp.sw.SetCurrentVersion(vc.vip, newVer); err != nil {
			panic("ctrlplane: SetCurrentVersion: " + err.Error())
		}
		cp.metrics.UpdatesCompleted++
		// The ablation swaps instantly: the whole 3-step update collapses
		// into one zero-duration transition.
		cp.traceUpdateStep(now, vc, telemetry.StepDone, now, now, prev, newVer)
		cp.retireIfIdle(vc, prev)
		cp.maybeStartUpdate(now, vc)
		return
	}

	// Step 1 (t_req): remember new connections in the TransitTable until
	// every connection that arrived before t_req is installed.
	vc.state = updRecording
	vc.treq = now
	vc.prevVer = vc.curVer
	// Stash the chosen version in texec-free field until step 2; reuse
	// curVer only at the swap. Keep it in pendingNewVer.
	vc.pendingNewVer = newVer
	cp.activeUpdates++
	if err := cp.sw.SetRecording(vc.vip, true); err != nil {
		panic("ctrlplane: SetRecording: " + err.Error())
	}
	cp.traceUpdateStep(now, vc, telemetry.StepRecording, vc.treq, 0, vc.curVer, newVer)
}

// chooseVersion picks the version number for a new pool: reuse an active
// version whose dead slots can be substituted with the added DIPs to form
// exactly the target pool (§4.2), else allocate from the ring buffer. The
// returned pool is the row to write: for reuse it is the *substituted*
// pool, preserving slot positions so connections pinned to the reused
// version keep selecting the same (live) DIPs; for a fresh version it is
// the target as requested.
func (cp *ControlPlane) chooseVersion(vc *vipCtl, target, added []dataplane.DIP) (ver uint32, pool []dataplane.DIP, reused, ok bool) {
	if !cp.cfg.DisableVersionReuse {
		for _, v := range vc.sortedVersions() {
			if v == vc.curVer || len(vc.deadSlots[v]) == 0 {
				continue
			}
			if v == vc.prevVer && vc.state != updIdle {
				continue
			}
			if cand, match := substitute(vc.pools[v], vc.deadSlots[v], added, target); match {
				return v, cand, true, true
			}
		}
	}
	if len(vc.freeVers) > 0 {
		v := vc.freeVers[0]
		vc.freeVers = vc.freeVers[1:]
		return v, target, false, true
	}
	// Ring empty: retire any version with zero connections on the spot.
	for _, v := range vc.sortedVersions() {
		if v != vc.curVer && vc.connsPerVer[v] == 0 && !(vc.state != updIdle && v == vc.prevVer) {
			cp.dropVersion(vc, v)
			return v, target, false, true
		}
	}
	return 0, nil, false, false
}

// substitute checks whether replacing pool's dead slots with the added DIPs
// yields the target pool as a multiset. It returns the substituted pool.
func substitute(pool []dataplane.DIP, dead map[int]bool, added, target []dataplane.DIP) ([]dataplane.DIP, bool) {
	if len(added) == 0 || len(added) > len(dead) || len(pool) != len(target) {
		return nil, false
	}
	out := clone(pool)
	ai := 0
	for i := range out {
		if dead[i] && ai < len(added) {
			out[i] = added[ai]
			ai++
		}
	}
	if ai != len(added) {
		return nil, false
	}
	// Slots that stay dead (more dead slots than additions) keep their old
	// DIP, which would resurrect a removed DIP — reject that case.
	if len(dead) != len(added) {
		return nil, false
	}
	if !samePool(out, target) {
		return nil, false
	}
	return out, true
}

// poolDiff returns (removed, added) between cur and next as multisets.
func poolDiff(cur, next []dataplane.DIP) (removed, added []dataplane.DIP) {
	count := map[dataplane.DIP]int{}
	for _, d := range cur {
		count[d]++
	}
	for _, d := range next {
		count[d]--
	}
	for d, c := range count {
		for i := 0; i < c; i++ {
			removed = append(removed, d)
		}
		for i := 0; i < -c; i++ {
			added = append(added, d)
		}
	}
	return removed, added
}

// checkTransitions advances the update state machine of every VIP based on
// the insertion watermarks (called from Advance after CPU work). It
// reports whether any state changed, so the caller can loop to a fixed
// point.
func (cp *ControlPlane) checkTransitions(now simtime.Time) bool {
	changed := false
	for _, vc := range cp.vips {
		switch vc.state {
		case updRecording:
			if cp.noPendingBefore(vc.treq) {
				// Step 2 (t_exec): atomically swap VIPTable to the new
				// version; misses consult the TransitTable.
				if err := cp.sw.BeginTransition(vc.vip, vc.pendingNewVer); err != nil {
					panic("ctrlplane: BeginTransition: " + err.Error())
				}
				vc.prevVer = vc.curVer
				vc.curVer = vc.pendingNewVer
				vc.state = updTransition
				vc.texec = now
				cp.traceUpdateStep(now, vc, telemetry.StepTransition, vc.treq, vc.texec,
					vc.prevVer, vc.curVer)
				changed = true
			}
		case updTransition:
			if cp.noPendingBefore(vc.texec) {
				cp.finishUpdate(now, vc)
				changed = true
			}
		case updIdle:
			if len(vc.queued) > 0 {
				cp.maybeStartUpdate(now, vc)
				changed = vc.state != updIdle || len(vc.queued) == 0
			}
		}
	}
	return changed
}

// finishUpdate completes step 3 for vc.
func (cp *ControlPlane) finishUpdate(now simtime.Time, vc *vipCtl) {
	if vc.state == updIdle {
		return
	}
	if err := cp.sw.EndTransition(vc.vip); err != nil {
		panic("ctrlplane: EndTransition: " + err.Error())
	}
	// An update force-finished while still recording never reached t_exec;
	// report the finish time as its transition point.
	texec := vc.texec
	if vc.state == updRecording {
		texec = now
	}
	cp.traceUpdateStep(now, vc, telemetry.StepDone, vc.treq, texec, vc.prevVer, vc.curVer)
	vc.state = updIdle
	cp.activeUpdates--
	if cp.activeUpdates == 0 {
		// No update in flight anywhere: the shared bloom filter can be
		// wiped (step 3's "clear TransitTable").
		cp.sw.ClearTransit()
	}
	cp.metrics.UpdatesCompleted++
	cp.retireIfIdle(vc, vc.prevVer)
	cp.maybeStartUpdate(now, vc)
}

// retireIfIdle frees version v of vc if no connection uses it anymore.
func (cp *ControlPlane) retireIfIdle(vc *vipCtl, v uint32) {
	if v == vc.curVer {
		return
	}
	if vc.state != updIdle && v == vc.prevVer {
		return
	}
	if vc.connsPerVer[v] != 0 {
		return
	}
	if _, exists := vc.pools[v]; !exists {
		return
	}
	cp.dropVersion(vc, v)
	vc.freeVers = append(vc.freeVers, v)
}

// dropVersion removes version v's pool row without returning it to the
// ring (callers decide).
func (cp *ControlPlane) dropVersion(vc *vipCtl, v uint32) {
	delete(vc.pools, v)
	delete(vc.deadSlots, v)
	delete(vc.connsPerVer, v)
	_ = cp.sw.DeletePool(vc.vip, v)
}

// noPendingBefore reports whether every connection that arrived before t
// has been installed: the hardware filter holds no event older than t and
// the CPU queue has none either.
func (cp *ControlPlane) noPendingBefore(t simtime.Time) bool {
	if oldest, any := cp.sw.LearnFilter().OldestAt(); any && oldest.Before(t) {
		return false
	}
	for i := 0; i < cp.queue.len(); i++ {
		if cp.queue.at(i).ev.At.Before(t) {
			return false
		}
	}
	return true
}
