// Package learnfilter models the connection-learning filter of a switching
// ASIC (§4.1, §4.3 of the paper).
//
// Entry insertion into an exact-match table is the job of the switch CPU,
// but the trigger is a hardware event: the first packet of a connection
// missing ConnTable. The learning filter batches those events, removes
// duplicates (subsequent packets of the same still-pending connection), and
// notifies the CPU either when the filter fills or when a configurable
// timeout (0.5 ms – 5 ms in the paper's experiments) elapses after the
// first buffered event. The window between a connection's arrival and its
// installation — the "pending" window — is precisely what creates the PCC
// hazard SilkRoad's TransitTable closes.
package learnfilter

import (
	"math/rand"

	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Event is one learn notification: a new connection, the DIP-pool version
// its first packet used, and when it arrived.
type Event struct {
	Tuple   netproto.FiveTuple
	KeyHash uint64
	Digest  uint32
	Version uint32
	At      simtime.Time
}

// Filter batches learn events.
type Filter struct {
	capacity int
	timeout  simtime.Duration

	pending map[uint64]int // keyHash -> index in batch
	batch   []Event
	// drained is the buffer the last Drain handed out; the next Drain
	// takes it back as the new batch, so the two alternate and a flush
	// allocates nothing once both have grown to the batch sizes seen.
	drained []Event
	first   simtime.Time // arrival of the oldest buffered event
	fullAt  simtime.Time // arrival of the event that filled the batch

	// metrics
	Offered    uint64 // events offered
	Duplicates uint64 // suppressed duplicates
	Flushes    uint64
	FullFlush  uint64 // flushes triggered by capacity rather than timeout
	Lost       uint64 // events dropped by injected digest loss

	// Injected digest loss (fault injection): each newly-buffered event is
	// dropped with probability lossRate, as if the hardware learn digest
	// never reached the CPU. The flow's later packets keep re-offering, so
	// loss stretches the pending window instead of losing the flow.
	lossRate float64
	lossRNG  *rand.Rand

	tracer telemetry.Tracer // nil = untraced
	pipe   int
}

// New creates a filter holding up to capacity events, flushing after
// timeout from the first buffered event.
func New(capacity int, timeout simtime.Duration) *Filter {
	if capacity <= 0 {
		panic("learnfilter: capacity must be positive")
	}
	if timeout <= 0 {
		panic("learnfilter: timeout must be positive")
	}
	return &Filter{
		capacity: capacity,
		timeout:  timeout,
		pending:  make(map[uint64]int),
	}
}

// Offer buffers a learn event. Duplicate events (same key hash while still
// buffered) are suppressed, mirroring the hardware filter. It returns true
// if the event was newly buffered.
func (f *Filter) Offer(ev Event) bool {
	f.Offered++
	if _, dup := f.pending[ev.KeyHash]; dup {
		f.Duplicates++
		return false
	}
	if f.lossRate > 0 && f.lossRNG.Float64() < f.lossRate {
		f.Lost++
		return false
	}
	if len(f.batch) == 0 {
		f.first = ev.At
	}
	f.pending[ev.KeyHash] = len(f.batch)
	f.batch = append(f.batch, ev)
	if len(f.batch) == f.capacity {
		f.fullAt = ev.At
	}
	return true
}

// Len returns the number of buffered events.
func (f *Filter) Len() int { return len(f.batch) }

// Full reports whether the filter has reached capacity.
func (f *Filter) Full() bool { return len(f.batch) >= f.capacity }

// NextFlush returns the time at which the current batch should be
// delivered to the CPU, and whether a batch is buffered at all. A full
// filter flushes the moment it filled — the arrival of the event that
// reached capacity, never earlier (flushing at the *first* event's time
// would schedule CPU insertions before the filling event existed). When
// the capacity flush and the timeout flush land on the same tick, the
// earlier of the two fires; both drain the identical batch exactly once.
func (f *Filter) NextFlush() (simtime.Time, bool) {
	if len(f.batch) == 0 {
		return 0, false
	}
	timeoutAt := f.first.Add(f.timeout)
	if f.Full() {
		if f.fullAt.Before(timeoutAt) {
			return f.fullAt, true
		}
		return timeoutAt, true
	}
	return timeoutAt, true
}

// SetTracer attaches a telemetry tracer: each Drain then emits one
// KindLearnFlush event labelled with the given pipe index.
func (f *Filter) SetTracer(tr telemetry.Tracer, pipe int) {
	f.tracer = tr
	f.pipe = pipe
}

// Drain hands the buffered batch to the CPU and resets the filter. The
// returned slice is the filter's own buffer, lent until the next Drain
// (offers in between do not touch it); a caller that keeps events longer
// copies them out.
func (f *Filter) Drain() []Event {
	if len(f.batch) == 0 {
		return nil
	}
	flushAt, _ := f.NextFlush() // before reset: the batch's delivery time
	out := f.batch
	f.batch, f.drained = f.drained[:0], out
	clear(f.pending)
	f.Flushes++
	full := len(out) >= f.capacity
	if full {
		f.FullFlush++
	}
	if f.tracer != nil {
		f.tracer.Trace(telemetry.Event{
			Kind: telemetry.KindLearnFlush, Now: flushAt, Pipe: f.pipe, Batch: len(out), Full: full,
		})
	}
	return out
}

// Contains reports whether a connection is currently buffered (i.e. is
// pending in the filter, not yet handed to the CPU).
func (f *Filter) Contains(keyHash uint64) bool {
	_, ok := f.pending[keyHash]
	return ok
}

// Get returns the buffered event for keyHash, if one is buffered.
func (f *Filter) Get(keyHash uint64) (Event, bool) {
	i, ok := f.pending[keyHash]
	if !ok {
		return Event{}, false
	}
	return f.batch[i], true
}

// OldestAt returns the arrival time of the oldest buffered event, and
// whether any event is buffered. The control plane uses this watermark to
// decide when every connection that arrived before an update request has
// left the hardware filter.
func (f *Filter) OldestAt() (simtime.Time, bool) {
	if len(f.batch) == 0 {
		return 0, false
	}
	return f.first, true
}

// Pending returns a copy of the currently buffered batch in arrival order —
// the filter's pending set, i.e. the connections inside the §4.2 window
// between first packet and CPU hand-off. Intended for debug surfaces.
func (f *Filter) Pending() []Event {
	if len(f.batch) == 0 {
		return nil
	}
	out := make([]Event, len(f.batch))
	copy(out, f.batch)
	return out
}

// SetLoss injects digest loss: each event that would be newly buffered is
// instead dropped with probability rate, drawn from a rate-seeded
// deterministic stream (same seed + same offer sequence = same drops).
// rate <= 0 turns loss back off. Fault-injection hook.
func (f *Filter) SetLoss(rate float64, seed uint64) {
	if rate <= 0 {
		f.lossRate, f.lossRNG = 0, nil
		return
	}
	f.lossRate = rate
	f.lossRNG = rand.New(rand.NewSource(int64(seed)))
}

// Capacity returns the configured batch capacity.
func (f *Filter) Capacity() int { return f.capacity }

// Timeout returns the configured flush timeout.
func (f *Filter) Timeout() simtime.Duration { return f.timeout }
