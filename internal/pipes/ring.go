package pipes

// The batch hot path: persistent per-pipe workers fed by bounded SPSC
// descriptor rings, in the run-to-completion style of software fast paths
// (DPDK, Maglev). ProcessFramesInto is the single producer — serialized by the
// engine's batch lock — and each pipe's worker is the single consumer of
// its ring. A descriptor covers a pipe's whole share of one batch, so the
// ring traffic is O(pipes) per batch, not O(packets).
//
// Claiming: every descriptor carries an atomic claim flag, and whoever wins
// the CAS — the pipe's worker, or the producer in its assist pass — runs
// the job. The assist pass keeps the batch path fast when workers are slow
// to wake (or the host has fewer cores than pipes: the producer then runs
// every job inline with zero context switches), while on multi-core hosts
// the workers pick their jobs off the rings concurrently and the chip's
// pipes genuinely run in parallel. Ring pushes are best-effort for the same
// reason: a full ring only means the descriptor is not offered to the
// worker, never that the job is lost — the assist pass executes it.

import (
	"sync"
	"sync/atomic"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// Descriptor claim states.
const (
	jobQueued  uint32 = iota // published, nobody has claimed it
	jobClaimed               // an executor won the CAS and owns the job
)

// batchJob describes one pipe's share of a ProcessFramesInto call. The engine
// keeps one reusable descriptor per pipe: the producer republishes it each
// batch by rewriting the fields and resetting state to jobQueued. A stale
// ring entry can therefore alias a republished descriptor; the claim CAS
// makes that harmless — each publication is executed exactly once, by
// exactly one goroutine, whichever entry it was claimed through.
type batchJob struct {
	now     simtime.Time
	frames  []netproto.Frame
	idxs    []int32 // indices into frames owned by this pipe, arrival order
	results []dataplane.Result
	state   atomic.Uint32
	wg      *sync.WaitGroup // the engine's batch completion group
}

// ringSize bounds each pipe's descriptor ring. With producers serialized
// by the batch lock at most one live descriptor per pipe is outstanding;
// the slack absorbs stale entries a parked worker has not reclaimed yet.
const ringSize = 8

// spscRing is a bounded single-producer single-consumer ring of job
// descriptors. The producer owns tail, the consumer owns head; the
// atomic tail store publishes the slot write that precedes it.
type spscRing struct {
	buf  [ringSize]*batchJob
	head atomic.Uint32
	tail atomic.Uint32
}

// push appends j, reporting false when the ring is full (the caller then
// runs the job inline instead of handing it to the worker).
func (r *spscRing) push(j *batchJob) bool {
	t := r.tail.Load()
	if t-r.head.Load() == ringSize {
		return false
	}
	r.buf[t%ringSize] = j
	r.tail.Store(t + 1)
	return true
}

// pop removes and returns the oldest descriptor, or nil when empty.
func (r *spscRing) pop() *batchJob {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil
	}
	j := r.buf[h%ringSize]
	r.head.Store(h + 1)
	return j
}

// pipeWorker is the long-lived consumer side of one pipe's batch path.
type pipeWorker struct {
	ring spscRing
	// notify wakes a parked worker after a push; it is buffered so the
	// producer never blocks and redundant wakes coalesce.
	notify chan struct{}
}

// worker is pipe pi's run-to-completion loop: park until notified, drain
// the ring, repeat until the engine closes. Started lazily by the first
// multi-pipe batch; exits via Engine.Close.
func (e *Engine) worker(pi int) {
	defer e.workerWG.Done()
	w := e.workers[pi]
	for {
		select {
		case <-e.quit:
			// Close holds the batch lock, so no batch is in flight; any
			// remaining ring entries are stale claimed descriptors. Drain
			// them anyway so nothing is left referencing caller memory.
			for w.ring.pop() != nil {
			}
			return
		case <-w.notify:
		}
		for j := w.ring.pop(); j != nil; j = w.ring.pop() {
			e.executeJob(pi, j)
		}
	}
}

// executeJob claims and runs j on pipe pi; descriptors already claimed by
// the other side (worker vs producer assist) are skipped.
func (e *Engine) executeJob(pi int, j *batchJob) {
	if !j.state.CompareAndSwap(jobQueued, jobClaimed) {
		return
	}
	e.runJob(pi, j)
	j.wg.Done()
}

// runJob processes one pipe's shard under the pipe lock: the one poll site
// besides ControlPlane.ProcessFrameInto. Background CPU work is advanced
// once for the whole shard — every packet of a job shares its timestamp, so
// the per-packet step's Advance would re-discover "nothing due"
// len(idxs)-1 times. Packets then run in arrival order; disjoint index sets
// across pipes make each result slot single-writer.
func (e *Engine) runJob(pi int, j *batchJob) {
	p := e.pipes[pi]
	p.mu.Lock()
	p.cp.Advance(j.now)
	for _, i := range j.idxs {
		f := &j.frames[i]
		p.dp.ProcessFrameInto(j.now, f, &j.results[i])
		p.processed++
		p.cp.HandleTupleResultInto(j.now, f.Tuple, &j.results[i])
	}
	p.mu.Unlock()
}
