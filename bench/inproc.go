package main

import (
	"fmt"
	"runtime"
	"time"

	silkroad "repro"
)

// options are a run's command-line settings.
type options struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	outDir  string
}

const (
	// minChunks is the least number of chunks a saturation phase is timed
	// in; a full-size run has some four hundred.
	minChunks = 20
	// warmShare is the untimed warm-up as a share of the saturation phase:
	// it fills the short-connection pipeline, the first round of pool
	// updates and the caches.
	warmShare  = 0.1
	nullChunks = 20
	// setupRuns is how many times a run sets up; the measured phases run on
	// the last.
	setupRuns = 3
	// quietShare picks the quantile every timing is reported at: the value
	// a twentieth of the run's chunks (lone slices, set-ups) are faster
	// than. The host's noise is one-sided (other tenants of the machine
	// slow the run for tens of milliseconds to tens of seconds at a time,
	// by up to 2x, and nothing speeds it up), so the fast end of a run's
	// chunks repeats between runs where their median does not. README.md
	// has the series this was chosen on.
	quietShare = 0.05
)

// plan fixes the work of a run from the flags alone, never from how fast it
// goes: the saturation phase's chunk count and the batches in each chunk.
// The workload's nominal rate times the requested seconds is the packet
// count; a chunk is the workload's chunkPackets, shrunk only when that would
// leave fewer than minChunks.
func plan(sp *spec, opt options) (chunks, per int) {
	total := sp.nominalPPS * opt.seconds * opt.scale
	per = sp.chunkPackets / batchLen
	if chunks = int(total) / sp.chunkPackets; chunks < minChunks {
		chunks, per = minChunks, max(int(total)/(minChunks*batchLen), 4)
	}
	// Whole pairs of pool updates (one VIP gains its DIP, another loses it)
	// and of batches (odd and even ones open different numbers of short
	// connections), so that every chunk holds the same mix of work.
	pair := max(2*sp.updateEvery/batchLen, 2)
	return chunks, (per + pair - 1) / pair * pair
}

// chunkTime is one timed chunk of the saturation phase.
type chunkTime struct {
	packets int64
	wall    time.Duration
	cpu     time.Duration
	traced  bool
}

// snapshot reads every counter the per-layer metrics are deltas of.
type snapshot struct {
	st    silkroad.Stats
	mem   runtime.MemStats
	tun   silkroad.TunnelStats
	moves int // cuckoo displacement moves so far
}

func takeSnapshot(sw *silkroad.Switch, tun *silkroad.Tunnel) snapshot {
	s := snapshot{st: sw.Stats(), moves: sw.Dataplane().ConnTable().TotalMoves}
	if tun != nil {
		s.tun = tun.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// measured is everything a workload's run produced, before it is turned
// into named metrics.
type measured struct {
	sp  *spec
	opt options

	setups   []float64 // seconds, one per set-up
	chunks   []chunkTime
	wall     time.Duration // the measured phases, saturation chunks and lone slices, end to end
	lone     []uint32      // every lone latency, ns, in the order taken
	loneMed  []float64     // the median of each lone slice, ns
	before   snapshot      // start of the measured phases
	after    snapshot      // their end
	heapBase uint64
	heapLive uint64 // after the final GC
	conns    int
	sram     int
	load     float64 // ConnTable occupancy at the end of the saturation phase
	queueMax int     // deepest insert queue seen in the measured phases

	attempted int64
	fail      failures
	nullNs    float64 // null-harness ns/packet
	rec       *recorder
	tracePath string
	lg        *ledger
	twoPipe   *twoPipe
	tun       *tunnelExtras
	problems  []string // reconciliation checks that did not hold
}

// newMeasured allocates everything a run of chunks chunks collects, so that
// nothing of the harness's grows between the heap baseline and the final
// heap reading.
func newMeasured(sp *spec, opt options, chunks int) *measured {
	return &measured{
		sp: sp, opt: opt,
		chunks:  make([]chunkTime, 0, chunks),
		lone:    make([]uint32, 0, sp.loneSamples+chunks*4*batchLen),
		loneMed: make([]float64, 0, chunks),
	}
}

// twoPipe is what the 2-pipe pass over established's packets recorded.
type twoPipe struct {
	processFrames float64
	imbalance     float64
}

func (m *measured) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// untracedPPS is the packet rate of every untraced chunk.
func (m *measured) untracedPPS() []float64 {
	var pps []float64
	for _, c := range m.chunks {
		if !c.traced {
			pps = append(pps, float64(c.packets)/c.wall.Seconds())
		}
	}
	return pps
}

// wallPerPacket is the quiet wall nanoseconds per packet over the chunks
// with the given traced flag.
func (m *measured) wallPerPacket(traced bool) float64 {
	var ns []float64
	for _, c := range m.chunks {
		if c.traced == traced {
			ns = append(ns, float64(c.wall)/float64(c.packets))
		}
	}
	return quiet(ns)
}

// addLone files one lone slice: its samples and their median.
func (m *measured) addLone(slice []uint32) {
	m.lone = append(m.lone, slice...)
	m.loneMed = append(m.loneMed, quantile(sortedNs(slice), 0.5))
}

// runChunk offers one chunk of the schedule and times it.
func (h *harness) runChunk(batches int) chunkTime {
	h.ids = h.sched.fill(h.ids, batches)
	cpu0, t0 := cpuTime(), time.Now()
	h.run(h.ids, batchLen)
	return chunkTime{packets: int64(len(h.ids)), wall: time.Since(t0), cpu: cpuTime() - cpu0, traced: h.rec != nil}
}

// loneSlice continues the schedule with batches of one, each packet timed,
// until it has n samples.
func (h *harness) loneSlice(n int) []uint32 {
	h.lone = h.loneBuf[:0]
	for len(h.lone) < n {
		h.ids = h.sched.fill(h.ids, 4)
		h.run(h.ids, 1)
	}
	slice := h.lone
	h.lone = nil
	return slice
}

// runInProcess runs one in-process workload: the set-ups, the warm-up, then
// the measured phases on the last set-up's switch, chunk by chunk, each
// chunk of the saturation phase followed by a slice of the lone phase. The
// lone phase is taken in slices because the host's speed changes from one
// second to the next: slices see what the chunks see, and the quiet ones can
// be told from the rest. Then the heap reading, (traced) the ledger, and
// the null-harness pass.
func runInProcess(sp *spec, opt options) (*measured, error) {
	// One goroutine does all the work. Left unlocked, the Go scheduler moves
	// it between the two CPUs every few milliseconds and the run measures
	// cold caches: a third of the throughput and most of its spread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	chunks, per := plan(sp, opt)
	m := newMeasured(sp, opt, chunks)
	if opt.trace {
		m.rec = newRecorder()
	}
	var h *harness
	for i := 0; i < setupRuns; i++ {
		if h != nil {
			h.sw.Close()
			h = nil // the previous set-up is garbage before the next heap baseline
		}
		res, err := setUp(sp, opt.seed, 1, per*batchLen, nil)
		if err != nil {
			return nil, err
		}
		h, m.heapBase = res.h, res.heapBase
		m.setups = append(m.setups, res.seconds)
	}
	defer h.sw.Close()

	for i := 0; i < int(warmShare*float64(chunks)); i++ {
		h.runChunk(per)
	}
	h.fail, h.pkts, h.queueMax = failures{}, 0, 0
	m.before = takeSnapshot(h.sw, nil)
	t0 := time.Now()
	for c := 0; c < chunks; c++ {
		// A traced run traces every other chunk, so that the traced and the
		// untraced chunks see the same host and their difference is the
		// tracing overhead.
		if c%2 == 1 {
			h.rec = m.rec
		}
		m.chunks = append(m.chunks, h.runChunk(per))
		h.rec = nil
		m.addLone(h.loneSlice((sp.loneSamples + chunks - 1) / chunks))
	}
	m.wall = time.Since(t0)
	m.after = takeSnapshot(h.sw, nil)
	m.load = h.sw.Dataplane().ConnTable().Occupancy()
	m.attempted, m.fail, m.queueMax = h.pkts, h.fail, h.queueMax
	if got := int64(m.after.st.Dataplane.Packets - m.before.st.Dataplane.Packets); got != h.pkts {
		m.problem("offered %d packets but the data plane counted %d", h.pkts, got)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.heapLive = ms.HeapAlloc
	st := h.sw.Stats()
	m.conns, m.sram = st.Connections, st.MemoryBytes

	if opt.trace {
		m.lg = takeLedger(h)
		path, err := m.rec.write(opt.outDir, sp.name, opt.seed)
		if err != nil {
			return nil, err
		}
		m.tracePath = path
		if sp.name == "established" {
			if m.twoPipe, err = runTwoPipe(sp, opt, per); err != nil {
				return nil, err
			}
		}
	}

	// Null pass, last: the same loop, copies and compares with the system's
	// calls answered by nullSystem. It scribbles over exp and the schedule.
	h.sys, h.sw = &nullSystem{}, nil
	clear(h.exp)
	var nullNs []float64
	for i := 0; i < nullChunks; i++ {
		c := h.runChunk(per)
		nullNs = append(nullNs, float64(c.wall)/float64(c.packets))
	}
	m.nullNs = quiet(nullNs)
	if frac := m.nullNs / m.wallPerPacket(false); frac > maxHarnessShare {
		m.problem("harness share %.3f exceeds %.2f: the timed region is not mostly the system", frac, maxHarnessShare)
	}
	return m, nil
}

// runTwoPipe sets established up again on a 2-pipe switch and times
// Engine.ProcessFramesInto over its packets. Trace only: on two shared
// cores this measures the scheduler as much as the engine.
func runTwoPipe(sp *spec, opt options, per int) (*twoPipe, error) {
	res, err := setUp(sp, opt.seed, 2, per*batchLen, nil)
	if err != nil {
		return nil, err
	}
	h := res.h
	defer h.sw.Close()
	tp := &twoPipe{}
	timeStages([]stage{processFramesStage(h, &tp.processFrames)})
	var most, total uint64
	for _, p := range h.sw.PerPipe() {
		total += p.Packets
		most = max(most, p.Packets)
	}
	if total > 0 {
		tp.imbalance = float64(most)*float64(h.sw.Pipes())/float64(total) - 1
	}
	return tp, nil
}
