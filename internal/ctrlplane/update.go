package ctrlplane

import (
	"slices"

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
		Before:      clone(vc.row(prevVer)),
		After:       clone(vc.row(newVer)),
	})
}

// maybeStartUpdate begins the next queued update if the VIP is idle.
func (cp *ControlPlane) maybeStartUpdate(now simtime.Time, vc *vipCtl) {
	if vc.state != updIdle || len(vc.queued) == 0 {
		return
	}
	req := vc.queued[0]
	vc.queued = vc.queued[1:]
	if sameMembers(req.pool, vc.row(vc.curVer)) {
		cp.metrics.UpdatesCoalesced++
		cp.maybeStartUpdate(now, vc)
		return
	}
	// Diff the target against the current pool: DIPs leaving service mark
	// dead slots in every live version that still references them (their
	// connections are dying with the DIP, so the slot may be rewritten).
	removed, added := poolDiff(vc.row(vc.curVer), req.pool)
	for i := range vc.vers {
		p := &vc.vers[i]
		for s, d := range p.row {
			if slices.Contains(removed, d) {
				if p.dead == nil {
					p.dead = make([]bool, len(p.row))
				}
				p.dead[s] = true
			}
		}
	}
	newVer, newPool, ok := cp.chooseVersion(vc, req.pool, added)
	if !ok {
		// Every version number is pinned (allocVersion counted the
		// exhaustion): re-queue and retry as versions retire.
		vc.queued = append([]updateReq{req}, vc.queued...)
		return
	}
	cp.writeRow(vc, newVer, newPool)

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

// chooseVersion picks the version number for a new pool: reuse a live
// version whose dead slots can be substituted with the added DIPs to form
// exactly the target pool (§4.2), else allocate one. The returned pool is
// the row to write: for reuse it is the *substituted* pool, preserving slot
// positions so connections pinned to the reused version keep selecting the
// same (live) DIPs; for a fresh version it is the target as requested.
func (cp *ControlPlane) chooseVersion(vc *vipCtl, target, added []dataplane.DIP) (ver uint32, pool []dataplane.DIP, ok bool) {
	if !cp.cfg.DisableVersionReuse {
		for _, p := range vc.vers {
			if p.dead == nil || p.ver == vc.curVer {
				continue
			}
			if cand, match := substitute(p.row, p.dead, added, target); match {
				return p.ver, cand, true
			}
		}
	}
	ver, ok = cp.allocVersion(vc)
	return ver, target, ok
}

// substitute checks whether writing the added DIPs into row's dead slots,
// in slot order, yields the target pool as a multiset. Every dead slot must
// take one: a slot left dead would resurrect a removed DIP. It returns the
// substituted row.
func substitute(row []dataplane.DIP, dead []bool, added, target []dataplane.DIP) ([]dataplane.DIP, bool) {
	out, n := clone(row), 0
	for i, d := range dead {
		if !d {
			continue
		}
		if n < len(added) {
			out[i] = added[n]
		}
		n++
	}
	if n == 0 || n != len(added) || !sameMembers(out, target) {
		return nil, false
	}
	return out, true
}

// poolDiff returns the multiset difference between cur and next: removed
// in cur's slot order, added in next's order, so the dead slots a reuse
// fills take the added DIPs in one order on every run.
func poolDiff(cur, next []dataplane.DIP) (removed, added []dataplane.DIP) {
	count := make(map[dataplane.DIP]int, len(cur))
	for _, d := range cur {
		count[d]++
	}
	for _, d := range next {
		if count[d] > 0 {
			count[d]--
		} else {
			added = append(added, d)
		}
	}
	for _, d := range cur {
		if count[d] > 0 {
			count[d]--
			removed = append(removed, d)
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
