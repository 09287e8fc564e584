package ctrlplane

import (
	"repro/internal/cuckoo"
	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Advance runs all control-plane work due at or before now: learning-filter
// drains, ConnTable insertions at the CPU's bounded rate, update state
// transitions, and (optionally) connection aging. Drains and insertions run
// in strict time order (advanceTo), every installation stamped with its own
// completion time. Callers must invoke it with non-decreasing times (a call
// behind the clock counts in Metrics.ClockRegressions); the
// engine (internal/pipes) calls it before a packet it runs through the data
// plane, and drivers call it whenever NextEventTime falls due.
//
// Aging is the one piece of work outside that merge that frees ConnTable
// slots, so with aging enabled a long step stops at every aging step due on
// the way: an expiry due before a queued full-table retry runs before it, as
// it would if the driver had stepped to each deadline in turn.
func (cp *ControlPlane) Advance(now simtime.Time) {
	for {
		ag, ok := cp.nextAging()
		if !ok || !ag.Before(now) {
			break
		}
		if ag.Before(cp.now) {
			ag = cp.now // an aging step overdue behind the clock never pulls time back
		}
		cp.advanceTo(ag)
	}
	cp.advanceTo(now)
}

// advanceTo merges the two timed queues up to now — the learning filter's
// flush and the CPU's insertions, head first — then runs the update
// transitions and the aging step. A flush wins a same-instant tie, as on
// the hardware: it only queues work the CPU picks up afterwards.
func (cp *ControlPlane) advanceTo(now simtime.Time) {
	for {
		flush, fok := cp.sw.LearnFilter().NextFlush()
		ins, iok := cp.nextInsert()
		if fok && !flush.After(now) && (!iok || !ins.Before(flush)) {
			cp.drainFilter(flush)
		} else if iok && !ins.After(now) {
			cp.install(cp.queue.pop())
		} else {
			break
		}
	}
	if now.After(cp.now) {
		cp.now = now
	} else if now.Before(cp.now) {
		cp.metrics.ClockRegressions++
	}
	// Update states can cascade: finishing one update starts the next
	// queued one, which may itself be immediately executable when no
	// pending connections exist. Loop to a fixed point. Transitions need no
	// timer of their own — they become possible only when an insertion or
	// drain retires pending work, which the merge just ran.
	for cp.checkTransitions(now) {
	}
	cp.age(now)
}

// nextInsert returns the head insertion's completion time. The queue is
// ordered by completion time (queue.go), so head order is time order.
func (cp *ControlPlane) nextInsert() (simtime.Time, bool) {
	if cp.queue.len() == 0 {
		return 0, false
	}
	return cp.queue.at(0).completeAt, true
}

// drainFilter reads one batch from the learning filter and schedules its
// insertions on the CPU timeline starting at flush time. With a configured
// MaxInsertQueue, events past the bound are shed (drop-newest): they cost
// no CPU time and the connections stay unpinned, re-resolving through
// VIPTable until a later packet re-offers them.
func (cp *ControlPlane) drainFilter(flushAt simtime.Time) {
	batch := cp.sw.LearnFilter().Drain()
	if len(batch) == 0 {
		return
	}
	room := len(batch)
	if bound := cp.cfg.MaxInsertQueue; bound > 0 {
		if room = bound - cp.queue.len(); room < 0 {
			room = 0
		}
	}
	start := cp.cpuFreeAt
	if flushAt.After(start) {
		start = flushAt
	}
	per := cp.perInsert()
	accepted := 0
	for _, ev := range batch {
		if accepted >= room {
			cp.metrics.InsertSheds++
			cp.traceInsert(flushAt, dataplane.VIPOf(ev.Tuple), telemetry.InsertLearned,
				telemetry.InsertShed, ev.At, ev.Tuple, ev.Version)
			continue
		}
		accepted++
		cp.queue.push(pendingInsert{
			ev:         ev,
			completeAt: start.Add(per * simtime.Duration(accepted)),
		})
	}
	cp.cpuFreeAt = start.Add(per * simtime.Duration(accepted))
	if cp.queue.len() > cp.metrics.MaxInsertQueue {
		cp.metrics.MaxInsertQueue = cp.queue.len()
	}
}

// requeueWithBackoff re-schedules a full-table insertion: attempt n waits
// insertRetryBackoff<<n (capped at insertRetryMax) before trying again,
// giving aging, connection ends or a lifted SRAM squeeze time to free
// slots.
func (cp *ControlPlane) requeueWithBackoff(pi pendingInsert) {
	d := insertRetryBackoff << uint(pi.retries)
	if d > insertRetryMax || d <= 0 {
		d = insertRetryMax
	}
	pi.retries++
	pi.completeAt = pi.completeAt.Add(d)
	cp.metrics.InsertRetries++
	cp.traceInsert(pi.completeAt, dataplane.VIPOf(pi.ev.Tuple), telemetry.InsertLearned,
		telemetry.InsertRetry, pi.ev.At, pi.ev.Tuple, pi.ev.Version)
	cp.queue.push(pi)
}

// traceInsert emits one KindInsert event (no-op when untraced).
func (cp *ControlPlane) traceInsert(now simtime.Time, vip dataplane.VIP,
	kind telemetry.InsertKind, outcome telemetry.InsertOutcome, arrivedAt simtime.Time,
	tuple netproto.FiveTuple, ver uint32) {
	if cp.tracer == nil {
		return
	}
	cp.tracer.Trace(telemetry.Event{
		Kind:       telemetry.KindInsert,
		Now:        now,
		Pipe:       cp.pipe,
		VIP:        cp.sw.VIPTelemetry(vip),
		Insert:     kind,
		Outcome:    outcome,
		ArrivedAt:  arrivedAt,
		QueueDepth: cp.queue.len(),
		Tuple:      tuple,
		Version:    ver,
	})
}

// install performs one ConnTable insertion (CPU side). The insertion is also
// the duplicate check: the table refuses a key it already holds.
func (cp *ControlPlane) install(pi pendingInsert) {
	ev := pi.ev
	vip := dataplane.VIPOf(ev.Tuple)
	vc, ok := cp.vips[vip]
	if !ok {
		return // VIP withdrawn while the event sat in the queue
	}
	if vc.version(ev.Version) == nil {
		// The version retired while the event was queued (can only happen
		// for unpinned conns after exhaustion-forced retirement): pin to
		// the current version instead.
		ev.Version = vc.curVer
	}
	err := cp.pin(pi.completeAt, vc, ev.Tuple, ev.KeyHash, ev.Digest, ev.Version)
	switch {
	case err == nil:
		cp.metrics.InsertDelaySum += pi.completeAt.Sub(ev.At)
		cp.traceInsert(pi.completeAt, vip, telemetry.InsertLearned, telemetry.InsertOK, ev.At, ev.Tuple, ev.Version)
	case err == cuckoo.ErrDuplicate:
		// Reported with the version the event was learned with, re-pinned
		// or not: the installed entry keeps its own.
		cp.metrics.DuplicateLearns++
		cp.traceInsert(pi.completeAt, vip, telemetry.InsertLearned, telemetry.InsertDuplicate, ev.At, ev.Tuple, pi.ev.Version)
	case err == cuckoo.ErrTableFull:
		if pi.retries < cp.cfg.MaxInsertRetries {
			if pi.imported && cp.tracer != nil {
				cp.tracer.Trace(telemetry.Event{
					Kind: telemetry.KindHandoff, Now: pi.completeAt, Donor: -1, Receiver: cp.pipe,
					HandoffStep: telemetry.HandoffRetry, Entries: 1,
				})
			}
			pi.ev = ev // keep the possibly-repinned version
			cp.requeueWithBackoff(pi)
			return
		}
		// §7: ConnTable acts as a cache; overflow connections stay
		// unpinned (each packet re-resolves through VIPTable) unless a
		// software tier picks them up through OnOverflow.
		cp.metrics.Overflows++
		cp.traceInsert(pi.completeAt, vip, telemetry.InsertLearned, telemetry.InsertOverflow, ev.At, ev.Tuple, ev.Version)
		if cp.cfg.OnOverflow != nil {
			if dip, derr := cp.sw.SelectDIP(vip, ev.Version, ev.Tuple); derr == nil {
				cp.cfg.OnOverflow(pi.completeAt, ev.Tuple, dip)
			}
		}
	default:
		panic("ctrlplane: InsertConn: " + err.Error())
	}
}

// pin installs tuple -> ver in ConnTable with a fresh record holding it and,
// when the table took it, does what every installed connection needs: the
// version's refcount, the aging bound, the handoff feed.
func (cp *ControlPlane) pin(now simtime.Time, vc *vipCtl, tuple netproto.FiveTuple, keyHash uint64, digest, ver uint32) error {
	rec := cp.conns.alloc(tuple, vc.slot, now)
	if err := cp.sw.InsertConnAt(now, keyHash, digest, ver, rec); err != nil {
		cp.conns.release(rec)
		return err
	}
	vc.version(ver).conns++
	cp.metrics.Inserted++
	if cp.conns.live == 1 || now.Before(cp.oldestSeen) {
		cp.oldestSeen = now
	}
	cp.noteConn(vc, tuple, ver, handoff.OpUpsert)
	return nil
}

// NextEventTime returns the earliest time at which Advance has work to do,
// and whether it has any: a learning-filter flush, a queued insertion, an
// aging step, or an update transition that is already eligible. It is the
// control plane's one deadline: simulations step to it and the switch
// runtime sleeps on it.
func (cp *ControlPlane) NextEventTime() (simtime.Time, bool) {
	at, ok := cp.sw.LearnFilter().NextFlush()
	consider := func(t simtime.Time, due bool) {
		if due && (!ok || t.Before(at)) {
			at, ok = t, true
		}
	}
	consider(cp.nextInsert())
	consider(cp.nextAging())
	consider(cp.nextTransition())
	return at, ok
}

// nextAging returns the next aging step at which a connection may expire —
// the first grid instant at or after the oldest last-seen time plus
// AgingTimeout, never later than the first expiry — if aging is enabled and
// any connection is live.
func (cp *ControlPlane) nextAging() (simtime.Time, bool) {
	if cp.agingStep == 0 || cp.conns.live == 0 {
		return 0, false
	}
	due := cp.oldestSeen.Add(cp.cfg.AgingTimeout + cp.agingStep - 1)
	return due - due%simtime.Time(cp.agingStep), true
}

// nextTransition returns the earliest instant an update state transition
// is already eligible to run (checkTransitions would make progress). On a
// quiescent switch an update reaches its watermark with no insertion or
// drain left to piggyback on, so drivers must wake up for it explicitly.
func (cp *ControlPlane) nextTransition() (simtime.Time, bool) {
	if cp.activeUpdates == 0 {
		return 0, false // no VIP is recording or in transition
	}
	var best simtime.Time
	found := false
	consider := func(t simtime.Time) {
		if !found || t.Before(best) {
			best, found = t, true
		}
	}
	for _, vc := range cp.vips {
		switch vc.state {
		case updRecording:
			if cp.noPendingBefore(vc.treq) {
				consider(vc.treq)
			}
		case updTransition:
			if cp.noPendingBefore(vc.texec) {
				consider(vc.texec)
			}
			// updIdle with queued work is deliberately absent: a queued
			// update that could start is started by RequestUpdate or the
			// finishUpdate cascade; one held by version exhaustion only
			// unblocks on EndConnection, and reporting it as due would
			// spin the runtime driver.
		}
	}
	return best, found
}

// HandleTupleResultInto performs the CPU side of a packet's outcome:
// arbitrating redirected SYNs and tracking liveness. It writes the
// authoritative decision (for redirects, the decision after software
// resolution and re-injection) back through *res, so a batch finishes each
// packet in its result slot without copying the Result through the call
// chain (redirects — rare by construction — still take the value-based
// resolvers). The CPU side only ever needs the packet's five-tuple.
func (cp *ControlPlane) HandleTupleResultInto(now simtime.Time, tuple netproto.FiveTuple, res *dataplane.Result) {
	switch res.Verdict {
	case dataplane.VerdictRedirectSYNConn:
		*res = cp.resolveConnSYN(now, tuple, *res)
	case dataplane.VerdictRedirectSYNTransit:
		*res = cp.resolveTransitSYN(now, tuple, *res)
	case dataplane.VerdictForward:
		// lastSeen only feeds the aging sweep; with aging disabled the
		// record touch would be pure per-packet overhead on the hot path.
		if cp.conns.aging {
			cp.touch(res, now)
		}
	}
}

// resolveConnSYN arbitrates a SYN that hit an existing ConnTable entry: a
// digest false positive (relocate the old entry, install this connection's
// own entry, and re-inject) or a retransmitted SYN of a known connection
// (forward as-is).
func (cp *ControlPlane) resolveConnSYN(now simtime.Time, tuple netproto.FiveTuple, res dataplane.Result) dataplane.Result {
	fixed, err := cp.sw.ResolveSYNCollisionAt(now, tuple, res)
	if err != nil {
		// Could not separate the keys (table pathologically full): fall
		// back to forwarding by the matched entry.
		res.Verdict = dataplane.VerdictForward
		return res
	}
	if !fixed {
		cp.metrics.RetransmittedSYNs++
		cp.touch(&res, now)
		res.Verdict = dataplane.VerdictForward
		return res
	}
	// Digest false positive: the aliasing entry has been relocated. The
	// software installs this connection's own entry immediately (it has
	// all the state; no need to wait for a learn cycle), then the SYN is
	// re-injected and hits the right entry.
	cp.metrics.DigestFPsResolved++
	cp.chargeCPU(now)
	vip := dataplane.VIPOf(tuple)
	vc, ok := cp.vips[vip]
	if !ok {
		res.Verdict = dataplane.VerdictForward
		return res
	}
	// If the connection was already pending (learned, awaiting insertion),
	// keep the version its first packet used; otherwise it is new and
	// takes the current version.
	ver := vc.curVer
	if pv, pending := cp.pendingVersion(res.KeyHash); pending {
		ver = pv
	}
	return cp.installInline(now, tuple, res, vc, ver, telemetry.InsertDigestFP)
}

// pendingVersion returns the learned-but-not-yet-installed version for a
// connection, consulting the hardware learning filter and the CPU queue.
func (cp *ControlPlane) pendingVersion(keyHash uint64) (uint32, bool) {
	if ev, ok := cp.sw.LearnFilter().Get(keyHash); ok {
		return ev.Version, true
	}
	for i := 0; i < cp.queue.len(); i++ {
		if ev := &cp.queue.at(i).ev; ev.KeyHash == keyHash {
			return ev.Version, true
		}
	}
	return 0, false
}

// installInline inserts tuple->ver on the CPU's fast path (redirect
// handling) and returns the forwarding result for the re-injected packet.
// kind records which arbitration (digest or bloom false positive) put the
// insertion on the fast path.
func (cp *ControlPlane) installInline(now simtime.Time, tuple netproto.FiveTuple, res dataplane.Result, vc *vipCtl, ver uint32, kind telemetry.InsertKind) dataplane.Result {
	dip, err := cp.sw.SelectDIP(vc.vip, ver, tuple)
	if err != nil {
		res.Verdict = dataplane.VerdictForward
		return res
	}
	if !dip.IsValid() {
		// The resolved version's pool is empty: there is no backend to pin
		// the connection to — drop instead of installing an unroutable entry.
		res.Verdict = dataplane.VerdictNoBackend
		return res
	}
	switch insErr := cp.pin(now, vc, tuple, res.KeyHash, res.Digest, ver); insErr {
	case nil:
		cp.traceInsert(now, vc.vip, kind, telemetry.InsertOK, now, tuple, ver)
	case cuckoo.ErrTableFull:
		cp.metrics.Overflows++
		cp.traceInsert(now, vc.vip, kind, telemetry.InsertOverflow, now, tuple, ver)
	case cuckoo.ErrDuplicate:
		cp.metrics.DuplicateLearns++
		cp.traceInsert(now, vc.vip, kind, telemetry.InsertDuplicate, now, tuple, ver)
	}
	res.Verdict = dataplane.VerdictForward
	res.Version = ver
	res.DIP = dip
	return res
}

// resolveTransitSYN arbitrates a SYN that matched the TransitTable during
// step 2. The software's shadow tells the truth: a known pending
// connection's retransmitted SYN keeps the old version; an unknown
// connection is a bloom false positive and must use the current version.
func (cp *ControlPlane) resolveTransitSYN(now simtime.Time, tuple netproto.FiveTuple, res dataplane.Result) dataplane.Result {
	vip := dataplane.VIPOf(tuple)
	vc, ok := cp.vips[vip]
	if !ok {
		return res
	}
	if cp.touch(&res, now) {
		// Installed connection whose SYN was retransmitted: the old
		// version the bloom filter chose is correct.
		cp.metrics.RetransmittedSYNs++
		res.Verdict = dataplane.VerdictForward
		return res
	}
	if ver, pending := cp.pendingVersion(res.KeyHash); pending {
		// Genuinely pending connection: it really is in the TransitTable;
		// keep the version its first packet used.
		cp.metrics.RetransmittedSYNs++
		res.Verdict = dataplane.VerdictForward
		res.Version = ver
		if dip, err := cp.sw.SelectDIP(vip, ver, tuple); err == nil {
			res.DIP = dip
		}
		if !res.DIP.IsValid() {
			res.Verdict = dataplane.VerdictNoBackend
		}
		return res
	}
	// False positive: this is a new connection; pin it to the current
	// version immediately (software-inserted, jumping the learn queue).
	cp.metrics.BloomFPsResolved++
	cp.chargeCPU(now)
	res.TransitHit = false
	return cp.installInline(now, tuple, res, vc, vc.curVer, telemetry.InsertBloomFP)
}

// chargeCPU accounts one out-of-band insertion's worth of CPU time.
func (cp *ControlPlane) chargeCPU(now simtime.Time) {
	if now.After(cp.cpuFreeAt) {
		cp.cpuFreeAt = now
	}
	cp.cpuFreeAt = cp.cpuFreeAt.Add(cp.perInsert())
}

// EndConnection tells the control plane that a connection terminated (FIN
// observed or simulator-driven flow end): its entry is deleted and its
// pool version's refcount drops, possibly retiring the version.
func (cp *ControlPlane) EndConnection(now simtime.Time, tuple netproto.FiveTuple) {
	e, ok := cp.tracked(cp.sw.ConnHashes(tuple))
	if !ok {
		return
	}
	cp.release(now, e)
	cp.metrics.ConnsEnded++
}

// touch reports whether res belongs to a tracked connection and, when
// connections age, records traffic on it (the aging sweep reads lastSeen). A
// ConnTable hit names the entry already, unless the hit was a digest alias —
// the slot's record is another connection's — and then, as after a miss,
// the exact probe finds it.
func (cp *ControlPlane) touch(res *dataplane.Result, now simtime.Time) bool {
	var e cuckoo.Entry
	if res.ConnHit {
		e, _ = cp.sw.ConnTable().EntryAt(res.ConnHandle)
	}
	if e.Record == 0 || e.KeyHash != res.KeyHash {
		var ok bool
		if e, ok = cp.tracked(res.KeyHash, res.Digest); !ok {
			return false
		}
	}
	if cp.conns.aging {
		*cp.conns.lastSeen(e.Record) = now
	}
	return true
}

// release deletes the tracked connection whose entry is e from ConnTable
// and vacates its record. The entry says everything the hash of the tuple
// would: where the connection sits, its key hash and its version; the
// record's slot names its VIP.
func (cp *ControlPlane) release(now simtime.Time, e cuckoo.Entry) {
	vc, tuple := cp.conn(e.Record)
	cp.sw.DeleteConnAt(now, e, tuple)
	cp.noteConn(vc, tuple, e.Value, handoff.OpDelete)
	vc.version(e.Value).conns--
	cp.retireIfIdle(vc, e.Value)
	cp.conns.release(e.Record)
}

// age runs the aging step at or before now, if one is due: the last grid
// instant at or before now judges every record, and a connection idle for
// AgingTimeout at that instant is released. The sweep reads the last-seen
// times in chunk order, reaches an expired connection's entry through its
// rebuilt tuple's key hash and its record index, and keeps the oldest time
// it leaves for nextAging.
func (cp *ControlPlane) age(now simtime.Time) {
	if due, ok := cp.nextAging(); !ok || due.After(now) {
		return
	}
	step := now - now%simtime.Time(cp.agingStep)
	oldest := vacant
	for _, fam := range [...]struct {
		seen []*[recordChunkLen]simtime.Time
		bit  uint32
	}{{cp.conns.v4.seen, 0}, {cp.conns.v6.seen, recordV6}} {
		for c, chunk := range fam.seen {
			for j, seen := range chunk {
				if step.Sub(seen) < cp.cfg.AgingTimeout {
					oldest = min(oldest, seen)
					continue
				}
				i := uint32(c<<recordChunkBits|j) | fam.bit
				e, ok := cp.sw.ConnTable().FindRecord(cp.recordKeyHash(i), i)
				if !ok {
					panic("ctrlplane: a live record has no ConnTable entry")
				}
				cp.release(now, e)
				cp.metrics.AgedOut++
			}
		}
	}
	cp.oldestSeen = oldest
}
