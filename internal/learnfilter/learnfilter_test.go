package learnfilter

import (
	"testing"

	"repro/internal/simtime"
)

func ev(key uint64, at simtime.Time) Event {
	return Event{KeyHash: key, Digest: uint32(key), At: at}
}

func TestOfferAndDedup(t *testing.T) {
	f := New(8, simtime.Duration(simtime.Millisecond))
	if !f.Offer(ev(1, 0)) {
		t.Fatal("first offer rejected")
	}
	if f.Offer(ev(1, 10)) {
		t.Fatal("duplicate not suppressed")
	}
	if !f.Offer(ev(2, 20)) {
		t.Fatal("distinct key rejected")
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.Duplicates != 1 || f.Offered != 3 {
		t.Fatalf("metrics: dup=%d offered=%d", f.Duplicates, f.Offered)
	}
	if !f.Contains(1) || f.Contains(3) {
		t.Fatal("Contains wrong")
	}
}

func TestTimeoutFlush(t *testing.T) {
	f := New(100, simtime.Duration(simtime.Millisecond))
	if _, ok := f.NextFlush(); ok {
		t.Fatal("empty filter has a flush time")
	}
	f.Offer(ev(1, simtime.Time(5*simtime.Microsecond)))
	f.Offer(ev(2, simtime.Time(500*simtime.Microsecond)))
	at, ok := f.NextFlush()
	if !ok {
		t.Fatal("no flush scheduled")
	}
	// Flush is timed from the FIRST buffered event.
	want := simtime.Time(5 * simtime.Microsecond).Add(simtime.Duration(simtime.Millisecond))
	if at != want {
		t.Fatalf("NextFlush = %v, want %v", at, want)
	}
}

func TestFullTriggersImmediateFlush(t *testing.T) {
	f := New(3, simtime.Duration(simtime.Millisecond))
	for i := uint64(0); i < 3; i++ {
		f.Offer(ev(i, simtime.Time(i)))
	}
	if !f.Full() {
		t.Fatal("filter should be full")
	}
	at, ok := f.NextFlush()
	// A full filter flushes immediately — at the arrival of the event that
	// filled it (t=2), not at the first event's time, which would schedule
	// CPU work before the filling event existed.
	if !ok || at != 2 {
		t.Fatalf("full filter NextFlush = (%v,%v), want t=2", at, ok)
	}
}

// TestTimeoutFlushRacesCapacityFlush covers the corner where the timeout
// flush and a capacity flush land on the same tick: the batch must flush
// exactly once, at that tick — never at the first event's arrival time,
// which would schedule CPU insertions before the filling event existed.
func TestTimeoutFlushRacesCapacityFlush(t *testing.T) {
	timeout := simtime.Duration(simtime.Millisecond)
	f := New(4, timeout)
	t0 := simtime.Time(10 * simtime.Microsecond)
	tick := t0.Add(timeout)

	for i := uint64(0); i < 3; i++ {
		f.Offer(ev(i, t0))
	}
	if at, ok := f.NextFlush(); !ok || at != tick {
		t.Fatalf("pre-fill NextFlush = (%v,%v), want timeout tick %v", at, ok, tick)
	}
	// The filling event arrives exactly at the timeout tick.
	f.Offer(ev(99, tick))
	if !f.Full() {
		t.Fatal("filter should be full")
	}
	at, ok := f.NextFlush()
	if !ok || at != tick {
		t.Fatalf("racing flushes: NextFlush = (%v,%v), want the shared tick %v", at, ok, tick)
	}
	// Causality: no scheduled flush may precede any buffered event.
	for _, e := range f.batch {
		if at.Before(e.At) {
			t.Fatalf("flush at %v precedes buffered event at %v", at, e.At)
		}
	}
	batch := f.Drain()
	if len(batch) != 4 {
		t.Fatalf("drained %d events, want 4 (one flush, no split)", len(batch))
	}
	if f.Flushes != 1 || f.FullFlush != 1 {
		t.Fatalf("flush accounting = (%d flushes, %d full), want (1, 1)", f.Flushes, f.FullFlush)
	}
	if _, ok := f.NextFlush(); ok || f.Len() != 0 {
		t.Fatal("filter not empty after the single drain")
	}
	// A capacity fill strictly before the timeout flushes at fill time.
	f2 := New(2, timeout)
	f2.Offer(ev(1, t0))
	fillAt := t0.Add(simtime.Duration(5 * simtime.Microsecond))
	f2.Offer(ev(2, fillAt))
	if at, ok := f2.NextFlush(); !ok || at != fillAt {
		t.Fatalf("capacity flush = (%v,%v), want fill time %v", at, ok, fillAt)
	}
}

func TestDrainResets(t *testing.T) {
	f := New(4, simtime.Duration(simtime.Millisecond))
	f.Offer(ev(1, 0))
	f.Offer(ev(2, 0))
	batch := f.Drain()
	if len(batch) != 2 {
		t.Fatalf("Drain returned %d events", len(batch))
	}
	if batch[0].KeyHash != 1 || batch[1].KeyHash != 2 {
		t.Fatalf("batch order wrong: %+v", batch)
	}
	if f.Len() != 0 || f.Contains(1) {
		t.Fatal("Drain did not reset")
	}
	if f.Flushes != 1 {
		t.Fatalf("Flushes = %d", f.Flushes)
	}
	// Same key can be learned again after drain (e.g. entry later deleted).
	if !f.Offer(ev(1, 100)) {
		t.Fatal("re-offer after drain rejected")
	}
	if f.Drain() == nil {
		t.Fatal("second drain empty")
	}
	if f.Drain() != nil {
		t.Fatal("drain of empty filter should be nil")
	}
}

// TestDrainBufferReuse: Drain lends the filter's own buffer. The slice it
// returns stays intact through the offers that follow, up to the next
// Drain; Pending and Get keep describing the batch being filled, not the
// one lent out; and a steady drain cycle allocates nothing.
func TestDrainBufferReuse(t *testing.T) {
	f := New(64, simtime.Duration(simtime.Millisecond))
	fill := func(base uint64, n int) {
		for i := 0; i < n; i++ {
			f.Offer(ev(base+uint64(i), simtime.Time(base)))
		}
	}
	check := func(what string, got []Event, base uint64, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d events, want %d", what, len(got), n)
		}
		for i, e := range got {
			if e.KeyHash != base+uint64(i) {
				t.Fatalf("%s: event %d has key %d, want %d", what, i, e.KeyHash, base+uint64(i))
			}
		}
	}

	fill(100, 5)
	first := f.Drain()
	fill(200, 7) // lands in the other buffer
	check("first batch after later offers", first, 100, 5)
	check("Pending", f.Pending(), 200, 7)
	if e, ok := f.Get(203); !ok || e.KeyHash != 203 {
		t.Fatalf("Get(203) = %+v, %v", e, ok)
	}
	if _, ok := f.Get(102); ok || f.Contains(102) {
		t.Fatal("a drained key is still reported pending")
	}

	second := f.Drain()
	check("second batch", second, 200, 7)
	// The first buffer is the filter's again: offers now overwrite it, and
	// the second batch is the one that must hold.
	fill(300, 9)
	check("second batch after later offers", second, 200, 7)
	check("Pending after reuse", f.Pending(), 300, 9)
	if e, ok := f.Get(308); !ok || e.KeyHash != 308 {
		t.Fatalf("Get(308) = %+v, %v", e, ok)
	}
	check("third batch", f.Drain(), 300, 9)

	if avg := testing.AllocsPerRun(100, func() {
		fill(400, 9)
		f.Drain()
	}); avg != 0 {
		t.Fatalf("steady offer/drain cycle allocates %.1f objects per flush, want 0", avg)
	}
}

func TestFullFlushCounter(t *testing.T) {
	f := New(2, simtime.Duration(simtime.Millisecond))
	f.Offer(ev(1, 0))
	f.Offer(ev(2, 0))
	f.Drain()
	f.Offer(ev(3, 0))
	f.Drain()
	if f.FullFlush != 1 || f.Flushes != 2 {
		t.Fatalf("FullFlush=%d Flushes=%d", f.FullFlush, f.Flushes)
	}
}

func TestAccessors(t *testing.T) {
	f := New(7, simtime.Duration(2*simtime.Millisecond))
	if f.Capacity() != 7 || f.Timeout() != simtime.Duration(2*simtime.Millisecond) {
		t.Fatal("accessors wrong")
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1) },
		func() { New(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad New did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestPendingWindowModel reproduces the §4.3 arithmetic: at a steady 1M new
// connections/minute, a 500us learning window always holds ~8 pending
// connections, so there is never an empty instant to apply an update.
func TestPendingWindowModel(t *testing.T) {
	f := New(2048, simtime.Duration(500*simtime.Microsecond))
	rate := 1_000_000.0 / 60.0 // conns per second
	interval := simtime.Duration(float64(simtime.Second) / rate)
	now := simtime.Time(0)
	key := uint64(0)
	// Drive until just before the first flush and count buffered events.
	flushAt := simtime.Time(0).Add(simtime.Duration(500 * simtime.Microsecond))
	for now.Before(flushAt) {
		f.Offer(ev(key, now))
		key++
		now = now.Add(interval)
	}
	if f.Len() < 7 || f.Len() > 10 {
		t.Fatalf("pending connections in 500us window = %d, want ~8", f.Len())
	}
}

func BenchmarkOfferDrain(b *testing.B) {
	f := New(2048, simtime.Duration(simtime.Millisecond))
	for i := 0; i < b.N; i++ {
		f.Offer(ev(uint64(i), simtime.Time(i)))
		if f.Full() {
			f.Drain()
		}
	}
}

func TestInjectedDigestLoss(t *testing.T) {
	mkEvents := func() []Event {
		evs := make([]Event, 64)
		for i := range evs {
			evs[i] = Event{KeyHash: uint64(i + 1)}
		}
		return evs
	}
	offer := func(f *Filter) (buffered int) {
		for _, ev := range mkEvents() {
			if f.Offer(ev) {
				buffered++
			}
			f.Drain() // keep the filter empty so every offer is fresh
		}
		return buffered
	}

	a := New(8, simtime.Duration(simtime.Millisecond))
	a.SetLoss(0.5, 7)
	gotA := offer(a)
	if a.Lost == 0 || gotA == 64 {
		t.Fatalf("no loss injected: buffered=%d Lost=%d", gotA, a.Lost)
	}
	if a.Lost+uint64(gotA) != 64 {
		t.Fatalf("Lost(%d) + buffered(%d) != offered(64)", a.Lost, gotA)
	}

	// Same seed, same offer sequence: identical drops.
	b := New(8, simtime.Duration(simtime.Millisecond))
	b.SetLoss(0.5, 7)
	if gotB := offer(b); gotB != gotA || b.Lost != a.Lost {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", gotA, a.Lost, gotB, b.Lost)
	}

	// Duplicates are suppressed before the loss coin flip.
	c := New(8, simtime.Duration(simtime.Millisecond))
	c.SetLoss(1.0, 1)
	if c.Offer(Event{KeyHash: 5}) {
		t.Fatal("rate-1.0 loss buffered an event")
	}
	if c.Lost != 1 {
		t.Fatalf("Lost = %d", c.Lost)
	}
	// Turning loss off restores normal behaviour.
	c.SetLoss(0, 0)
	if !c.Offer(Event{KeyHash: 5}) {
		t.Fatal("offer failed after loss disabled")
	}
}
