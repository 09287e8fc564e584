package main

import (
	"sort"
	"time"

	silkroad "repro"
	"repro/internal/bloom"
	"repro/internal/cuckoo"
	"repro/internal/hashing"
	"repro/internal/learnfilter"
	"repro/internal/netproto"
)

// ledgerRounds is how many 64-call rounds each stage is timed for.
const ledgerRounds = 1500

// ledger is the stage-by-stage cost of the packet path: each inner layer's
// public functions timed over the workload's own packets and, where the
// call only reads, the switch's own state after the run; scratch instances
// of the same configuration and occupancy where the call mutates. One
// clock pair spans 64 calls; a figure is the median round's nanoseconds
// per call.
type ledger struct {
	parse, rewrite           float64
	keyHash, digest          float64
	lookup, selectDIP        float64
	processFrame             float64 // dataplane.Switch.ProcessFrame
	processFrames            float64 // silkroad.Switch.ProcessFramesInto, per frame
	offer, drainPerEvent     float64
	insert                   float64
	bloomInsert, bloomLookup float64
	laneHash                 float64
	advanceTo                float64 // Switch.AdvanceTo, one call per batch, per packet
	advancePoll              float64 // ctrlplane.ControlPlane.Advance with nothing due, one call per frame
	// whole is the harness's own loop over batches of resident packets
	// (step time, copy, parse, process, rewrite, check), per packet: the
	// path the stages above are the parts of, timed in the same pass.
	whole float64
}

// hitPathSum is what the stages of a ConnTable hit add up to, each at its
// calls per packet. SelectDIP hashes the key itself, so the pipeline's one
// key hash per packet is counted inside it.
func (lg *ledger) hitPathSum() float64 {
	return lg.parse + lg.digest + lg.lookup + lg.selectDIP + lg.rewrite + lg.advanceTo + lg.advancePoll
}

// stage is one timed call site of the ledger: fn makes calls calls between
// one pair of clock reads, after prep(turn) has run untimed; out receives
// the median round's nanoseconds per call. turn numbers every prep call of
// the pass, so a stage that loads the turn's 64 connections never gets
// ones an earlier stage has just pulled into the cache.
type stage struct {
	out   *float64
	calls int
	prep  func(turn int)
	fn    func()
}

// timeStages runs every stage once per round, ledgerRounds times over.
// Taking the stages in turn, rather than one after another, puts them all
// under the same host conditions, so that the parts still add up to the
// whole when the host's speed drifts during the pass.
func timeStages(stages []stage) {
	ns := make([][]float64, len(stages))
	for r := 0; r < ledgerRounds; r++ {
		for i, st := range stages {
			if st.prep != nil {
				st.prep(r*len(stages) + i)
			}
			t0 := time.Now()
			st.fn()
			ns[i] = append(ns[i], float64(time.Since(t0))/float64(st.calls))
		}
	}
	for i, st := range stages {
		sort.Float64s(ns[i])
		*st.out = quantile(ns[i], 0.5)
	}
}

// processFramesStage times Switch.ProcessFramesInto over batches of 64
// resident packets, parsed untimed: the whole pipeline call, per frame, on
// whatever pipe count h's switch runs.
func processFramesStage(h *harness, out *float64) stage {
	frames, results := h.frames[:batchLen], h.results[:batchLen]
	return stage{out, batchLen, func(turn int) {
		for j := range frames {
			c := (turn*batchLen + j) % h.tr.resident
			copy(h.ring[j], h.tr.packet(uint32(c)))
			if err := netproto.ParseFrame(h.ring[j], &frames[j]); err != nil {
				panic("ledger: generated packet does not parse: " + err.Error())
			}
		}
	}, func() {
		h.sw.ProcessFramesInto(h.now, frames, results)
	}}
}

// sink keeps the compiler from discarding the results of timed calls.
var sink uint64

// takeLedger times every stage against h's switch and traffic. It runs
// after the workload's phases and counters have been read: the in-situ
// calls bump the data plane's packet counters.
func takeLedger(h *harness) *ledger {
	const n = batchLen
	tr, sw := h.tr, h.sw
	dp, cp := sw.Dataplane(), sw.Controlplane()
	cfg, table := dp.Config(), dp.ConnTable()
	lg := &ledger{}
	var (
		ids    [n]uint32
		tuples [n]netproto.FiveTuple
		vips   [n]silkroad.VIP
		vers   [n]uint32
		dips   [n]silkroad.DIP
		kh     [n]uint64
		dg     [n]uint32
		events [n]learnfilter.Event
	)
	frames := h.frames[:n]
	// Each turn works on the next 64 resident connections, so it touches
	// fresh table rows as the run itself does.
	load := func(turn int) {
		for j := 0; j < n; j++ {
			c := (turn*n + j) % tr.resident
			ids[j] = uint32(c)
			copy(h.ring[j], tr.packet(uint32(c)))
			v := tr.vipOf[c]
			tuples[j], vips[j], dips[j] = tr.tuples[c], tr.vips[v], tr.pools[v][j%poolSize]
			kh[j], dg[j] = dp.KeyHash(tuples[j]), dp.ConnDigest(tuples[j])
			vers[j], _ = dp.CurrentVersion(vips[j])
			events[j] = learnfilter.Event{Tuple: tuples[j], KeyHash: kh[j], Digest: dg[j], At: h.now}
		}
	}
	parse := func(turn int) {
		load(turn)
		for j := range frames {
			if err := netproto.ParseFrame(h.ring[j], &frames[j]); err != nil {
				panic("ledger: generated packet does not parse: " + err.Error())
			}
		}
	}

	// Mutating layers run on scratch instances configured like the switch's
	// and, for the table, filled like it.
	filter := learnfilter.New(cfg.LearnFilterCapacity, cfg.LearnFilterTimeout)
	var drained int
	var drainNanos time.Duration
	scratch := cuckoo.New(table.Config())
	table.Iterate(func(keyHash uint64, digest uint32, value uint32) bool {
		_, _ = scratch.Insert(keyHash, digest, value) // the keys of the full table: they fit
		return true
	})
	var ikh [n]uint64
	var idg [n]uint32
	bf := bloom.New(cfg.TransitTableBytes, cfg.TransitTableHashes, cfg.Seed)

	timeStages([]stage{
		{&lg.whole, n, load, func() { h.run(ids[:], n) }},
		{&lg.parse, n, load, func() {
			for j := range frames {
				_ = netproto.ParseFrame(h.ring[j], &frames[j])
			}
		}},
		{&lg.rewrite, n, parse, func() {
			for j := range frames {
				_ = frames[j].RewriteDst(dips[j])
			}
		}},
		{&lg.keyHash, n, load, func() {
			for j := range tuples {
				sink += dp.KeyHash(tuples[j])
			}
		}},
		{&lg.digest, n, nil, func() {
			for j := range tuples {
				sink += uint64(dp.ConnDigest(tuples[j]))
			}
		}},
		{&lg.lookup, n, nil, func() {
			for j := range kh {
				v, _, _ := table.Lookup(kh[j], dg[j])
				sink += uint64(v)
			}
		}},
		{&lg.selectDIP, n, nil, func() {
			for j := range tuples {
				d, _ := dp.SelectDIP(vips[j], vers[j], tuples[j])
				sink += uint64(d.Port())
			}
		}},
		{&lg.laneHash, n, nil, func() {
			for j := range tuples {
				sink += netproto.LaneHash(1, &tuples[j])
			}
		}},
		{&lg.processFrame, n, parse, func() {
			for j := range frames {
				r := dp.ProcessFrame(h.now, &frames[j])
				sink += r.KeyHash
			}
		}},
		processFramesStage(h, &lg.processFrames),
		{&lg.advancePoll, n, nil, func() {
			for j := 0; j < n; j++ {
				cp.Advance(h.now)
			}
		}},
		{&lg.advanceTo, n, nil, func() {
			h.now = h.now.Add(batchLen * pktSlot)
			h.sys.AdvanceTo(h.now)
		}},
		{&lg.offer, n, func(turn int) {
			// A flush delivers about two rounds of events in the run; drain
			// at that size, timed on the side.
			if filter.Len() >= 2*n {
				t0 := time.Now()
				drained += len(filter.Drain())
				drainNanos += time.Since(t0)
			}
			load(turn)
		}, func() {
			for j := range events {
				filter.Offer(events[j])
			}
		}},
		{&lg.insert, n, func(turn int) {
			for j := range ikh {
				scratch.Delete(ikh[j]) // hold the occupancy (nothing to delete the first time)
				ikh[j] = hashing.HashUint64(0xfeed, uint64(turn*n+j))
				idg[j] = hashing.DigestUint64(0xd16, cfg.DigestBits, ikh[j])
			}
		}, func() {
			for j := range ikh {
				_, _ = scratch.Insert(ikh[j], idg[j], 0) // a full table is a slow insert, which is the measurement
			}
		}},
		{&lg.bloomInsert, n, func(int) {
			bf.Clear() // the 3-step update bounds the population to one learn window
		}, func() {
			for j := range kh {
				bf.Insert(kh[j])
			}
		}},
		{&lg.bloomLookup, n, nil, func() {
			for j := range kh {
				if bf.MaybeContains(kh[j]) {
					sink++
				}
			}
		}},
	})
	if drained > 0 {
		lg.drainPerEvent = float64(drainNanos) / float64(drained)
	}
	return lg
}
