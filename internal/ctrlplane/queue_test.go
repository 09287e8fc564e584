package ctrlplane

import (
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func queued(key uint64, at simtime.Time) pendingInsert {
	pi := pendingInsert{completeAt: at}
	pi.ev.KeyHash = key
	pi.ev.Tuple = tupleN(int(key))
	return pi
}

// checkQueue asserts the queue's live entries, head to tail, and that every
// slot outside them is zero — nothing an executed insertion carried stays
// reachable, whatever history the ring has.
func checkQueue(t *testing.T, q *insertQueue, keys ...uint64) {
	t.Helper()
	if q.len() != len(keys) {
		t.Fatalf("queue holds %d entries, want %d", q.len(), len(keys))
	}
	live := map[int]bool{}
	for i, k := range keys {
		if got := q.at(i).ev.KeyHash; got != k {
			t.Fatalf("entry %d is key %d, want %d", i, got, k)
		}
		if i > 0 && q.at(i).completeAt.Before(q.at(i-1).completeAt) {
			t.Fatalf("entry %d completes before entry %d", i, i-1)
		}
		live[(q.head+i)&(len(q.buf)-1)] = true
	}
	for i := range q.buf {
		if !live[i] && q.buf[i] != (pendingInsert{}) {
			t.Fatalf("vacated slot %d still holds %+v", i, q.buf[i])
		}
	}
}

func TestInsertQueueRing(t *testing.T) {
	var q insertQueue
	// Run the head most of the way round the initial 16-slot ring.
	for k := uint64(1); k <= 13; k++ {
		q.push(queued(k, simtime.Time(k)))
	}
	for k := uint64(1); k <= 13; k++ {
		if got := q.pop().ev.KeyHash; got != k {
			t.Fatalf("popped key %d, want %d", got, k)
		}
	}
	checkQueue(t, &q)

	// Six appends straddle the wrap; then an entry due among them (a retry
	// with backoff) and one due with an existing entry (it goes behind).
	for k := uint64(20); k < 26; k++ {
		q.push(queued(k, simtime.Time(10*k)))
	}
	if q.head+q.len() <= len(q.buf) {
		t.Fatalf("head %d + %d entries does not wrap a %d-slot ring", q.head, q.len(), len(q.buf))
	}
	q.push(queued(99, 225))
	q.push(queued(98, 230))
	q.push(queued(97, 5))
	checkQueue(t, &q, 97, 20, 21, 22, 99, 23, 98, 24, 25)

	// Cancelling from the middle (an import raced by its delete) closes up.
	q.remove(4)
	checkQueue(t, &q, 97, 20, 21, 22, 23, 98, 24, 25)
	q.remove(7)
	q.remove(0)
	checkQueue(t, &q, 20, 21, 22, 23, 98, 24)

	// Growing while wrapped keeps the order.
	for k := uint64(30); k < 50; k++ {
		q.push(queued(k, simtime.Time(10*k)))
	}
	if len(q.buf) != 32 {
		t.Fatalf("ring grew to %d slots, want 32", len(q.buf))
	}
	want := []uint64{20, 21, 22, 23, 98, 24}
	for k := uint64(30); k < 50; k++ {
		want = append(want, k)
	}
	checkQueue(t, &q, want...)
	for _, k := range want {
		if got := q.pop().ev.KeyHash; got != k {
			t.Fatalf("popped key %d, want %d", got, k)
		}
	}
	checkQueue(t, &q)
}

// TestInsertQueueShedsDeepBacklogRing: a ring that a workload's backlogs fit
// is kept when it drains (the steady state allocates nothing), one that an
// overload episode grew past ringKeep is given back, and the queue works on
// from an empty ring.
func TestInsertQueueShedsDeepBacklogRing(t *testing.T) {
	var q insertQueue
	fillAndDrain := func(n int) {
		for k := 0; k < n; k++ {
			q.push(queued(uint64(k), simtime.Time(k)))
		}
		for k := 0; k < n-1; k++ {
			q.pop()
		}
		if len(q.buf) < n {
			t.Fatalf("ring of %d slots with an entry still queued after a backlog of %d", len(q.buf), n)
		}
		if got := q.pop().ev.KeyHash; got != uint64(n-1) {
			t.Fatalf("last popped key %d, want %d", got, n-1)
		}
	}
	fillAndDrain(ringKeep)
	if len(q.buf) != ringKeep {
		t.Fatalf("a drained %d-entry backlog left a %d-slot ring, want it kept", ringKeep, len(q.buf))
	}
	fillAndDrain(ringKeep + 1)
	if q.buf != nil || q.head != 0 {
		t.Fatalf("a drained %d-entry backlog left a %d-slot ring (head %d), want it given back", ringKeep+1, len(q.buf), q.head)
	}
	for k := 0; k < ringKeep+1; k++ { // cancelling the last entry drains too
		q.push(queued(uint64(k), simtime.Time(k)))
	}
	for q.len() > 0 {
		q.remove(q.len() - 1)
	}
	if q.buf != nil {
		t.Fatalf("a backlog cancelled to empty left a %d-slot ring", len(q.buf))
	}
	q.push(queued(7, 7))
	checkQueue(t, &q, 7)
}

// TestRetryOrderAfterWrapAround drives the control plane until its queue
// has wrapped, then makes a later learn's first retry (1 ms backoff) fall
// due ahead of an earlier learn's second retry (2 ms): the retried
// insertions must execute in completion-time order, and a CPU stall must
// shift both uniformly.
func TestRetryOrderAfterWrapAround(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.MaxInsertRetries = 5
	h := newHarness(t, dataplane.DefaultConfig(10000), ccfg)
	if err := h.cp.AddVIP(0, testVIP(), poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	// Six installs here and seven failed attempts below leave the head at
	// slot 13 of 16 when the six retries sit in the queue.
	for i := 1; i <= 6; i++ {
		h.send(0, tupleN(i), netproto.FlagSYN)
	}
	h.cp.Advance(ms(2))
	if got := h.cp.Metrics().Inserted; got != 6 {
		t.Fatalf("setup: Inserted = %d", got)
	}
	h.sw.SetConnTableLimit(h.sw.ConnTable().Len()) // every insertion now fails

	early, late := tupleN(100), tupleN(200)
	// early: learned at 3 ms, flushed at 4 ms, fails at 4.005 and 5.005 ms,
	// second retry due at 7.005 ms.
	h.send(ms(3), early, netproto.FlagSYN)
	// late, with four companions: learned at 4.1 ms, flushed at 5.1 ms,
	// fail from 5.105 ms, first retries due from 6.105 ms — ahead of early.
	for i := 0; i < 5; i++ {
		h.send(ms(4).Add(us(100)), tupleN(200+i), netproto.FlagSYN)
	}
	h.cp.Advance(ms(5).Add(us(500)))
	q := &h.cp.queue
	if q.head+q.len() <= len(q.buf) {
		t.Fatalf("head %d + %d entries does not wrap the %d-slot ring", q.head, q.len(), len(q.buf))
	}
	if got := q.at(q.len() - 1).ev.Tuple; got != early {
		t.Fatalf("tail of the queue is %v, want the twice-retried %v", got, early)
	}
	if at, _ := h.cp.NextEventTime(); at != ms(6).Add(us(105)) {
		t.Fatalf("head due at %v, want 6.105ms", at)
	}

	// The squeeze lifts and the CPU stalls 1 ms: everything moves back as one.
	h.sw.SetConnTableLimit(0)
	h.cp.StallCPU(ms(6), simtime.Duration(simtime.Millisecond))
	if at, _ := h.cp.NextEventTime(); at != ms(7).Add(us(105)) {
		t.Fatalf("head due at %v after the stall, want 7.105ms", at)
	}
	h.cp.Advance(ms(7).Add(us(500)))
	if res := h.send(ms(7).Add(us(500)), late, netproto.FlagACK); !res.ConnHit {
		t.Fatal("the once-retried connection is not installed at 7.5ms")
	}
	if res := h.send(ms(7).Add(us(500)), early, netproto.FlagACK); res.ConnHit {
		t.Fatal("the twice-retried connection installed ahead of its 8.005ms deadline")
	}
	checkQueue(t, q, h.sw.KeyHash(early))
	h.cp.Advance(ms(8).Add(us(10)))
	if res := h.send(ms(8).Add(us(10)), early, netproto.FlagACK); !res.ConnHit {
		t.Fatal("the twice-retried connection is not installed at 8.01ms")
	}
	checkQueue(t, q)
	if h.violations != 0 {
		t.Fatalf("PCC violations = %d", h.violations)
	}
}

// TestFlushWinsSameInstantTie: when a learning-filter flush and a queued
// insertion fall due at the same instant, the flush drains first — it only
// queues work, which the CPU picks up afterwards. At 1 ms per insertion, A
// (learned at 0, flushed at 1 ms) completes at 2 ms, when B (learned at
// 1 ms) flushes: A's install must see B already queued behind it.
func TestFlushWinsSameInstantTie(t *testing.T) {
	var trace []telemetry.Event
	dcfg := dataplane.DefaultConfig(1000)
	dcfg.Tracer = traceFunc(func(e telemetry.Event) {
		if e.Kind == telemetry.KindLearnFlush || e.Kind == telemetry.KindInsert {
			trace = append(trace, e)
		}
	})
	ccfg := DefaultConfig()
	ccfg.InsertRate = 1000
	h := newHarness(t, dcfg, ccfg)
	if err := h.cp.AddVIP(0, testVIP(), poolN(4), 0); err != nil {
		t.Fatal(err)
	}
	a, b := tupleN(1), tupleN(2)
	h.send(0, a, netproto.FlagSYN)
	h.send(ms(1), b, netproto.FlagSYN) // polls A's flush, then learns B
	if at, ok := h.cp.NextEventTime(); !ok || at != ms(2) {
		t.Fatalf("NextEventTime = %v, %v; want A's install and B's flush at 2ms", at, ok)
	}
	trace = trace[:0]
	h.cp.Advance(ms(2))
	var kinds []telemetry.Kind
	for _, e := range trace {
		kinds = append(kinds, e.Kind)
	}
	if want := []telemetry.Kind{telemetry.KindLearnFlush, telemetry.KindInsert}; !slices.Equal(kinds, want) {
		t.Fatalf("event kinds at 2ms = %v, want %v: B's flush, then A's install", kinds, want)
	}
	if ins := trace[1]; ins.Tuple != a || ins.Outcome != telemetry.InsertOK || ins.QueueDepth != 1 {
		t.Fatalf("A installed as %v with %d queued, want %v with B queued behind it",
			ins.Tuple, ins.QueueDepth, a)
	}
	if got := h.cp.Metrics().MaxInsertQueue; got != 2 {
		t.Fatalf("MaxInsertQueue = %d, want A and B queued together", got)
	}
}
