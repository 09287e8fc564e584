package sched

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

func ms(n int64) simtime.Time { return simtime.Time(n * int64(simtime.Millisecond)) }

// TestTimerFIFOOrder verifies the (time, seq) heap order: events at the
// same instant fire in scheduling order — the determinism property the
// simulator's golden files depend on.
func TestTimerFIFOOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(ms(5), func(simtime.Time) { got = append(got, i) })
	}
	s.At(ms(1), func(simtime.Time) { got = append(got, -1) })
	s.RunUntil(ms(5))
	want := []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestEveryAndStop covers periodic firing, cancellation from outside and
// from inside the callback, and that Next ignores stopped timers.
func TestEveryAndStop(t *testing.T) {
	s := New()
	var ticks []simtime.Time
	task := s.Every(ms(10), 10*simtime.Millisecond, func(now simtime.Time) {
		ticks = append(ticks, now)
	})
	s.RunUntil(ms(35))
	if len(ticks) != 3 || ticks[2] != ms(30) {
		t.Fatalf("ticks=%v, want firings at 10,20,30ms", ticks)
	}
	task.Stop()
	s.RunUntil(ms(100))
	if len(ticks) != 3 {
		t.Fatalf("stopped task fired again: %v", ticks)
	}
	if next, ok := s.Next(); ok {
		t.Fatalf("Next=%v after stop, want no work", next)
	}

	// Self-stop: a periodic task that cancels itself does not reschedule.
	n := 0
	var self *Task
	self = s.Every(ms(110), 10*simtime.Millisecond, func(simtime.Time) {
		n++
		if n == 2 {
			self.Stop()
		}
	})
	s.RunUntil(ms(500))
	if n != 2 {
		t.Fatalf("self-stopping task fired %d times, want 2", n)
	}
}

// recordingSource is a Source with a scripted deadline list.
type recordingSource struct {
	deadlines []simtime.Time // ascending; consumed as advanced past
	advances  []simtime.Time
}

func (r *recordingSource) NextEventTime() (simtime.Time, bool) {
	if len(r.deadlines) == 0 {
		return 0, false
	}
	return r.deadlines[0], true
}

func (r *recordingSource) Advance(now simtime.Time) {
	r.advances = append(r.advances, now)
	for len(r.deadlines) > 0 && !r.deadlines[0].After(now) {
		r.deadlines = r.deadlines[1:]
	}
}

// wantSeq fails the test unless got is exactly want.
func wantSeq[T comparable](t *testing.T, what string, got []T, want ...T) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s=%v, want %v", what, got, want)
	}
}

// TestRunInterleavesSources: a source's backlog before a timer is retired
// in one step to the timer's instant, its horizon, and then the timer
// fires; the source's later deadline runs after it, up to the target.
func TestRunInterleavesSources(t *testing.T) {
	s := New()
	src := &recordingSource{deadlines: []simtime.Time{ms(3), ms(7), ms(12)}}
	s.AddSource(src)
	var atFire []simtime.Time
	s.At(ms(10), func(simtime.Time) { atFire = slices.Clone(src.advances) })
	s.RunUntil(ms(100))

	// The 3ms and 7ms deadlines fall under one horizon, the timer at 10ms.
	wantSeq(t, "advances when the timer fired", atFire, ms(10))
	wantSeq(t, "advances", src.advances, ms(10), ms(100))
	if next, ok := s.Next(); ok {
		t.Fatalf("Next=%v, want no work left", next)
	}
}

// TestOneAdvancePerHorizon: N deadlines of one source with nothing else due
// among them cost one Advance call, to the RunUntil target.
func TestOneAdvancePerHorizon(t *testing.T) {
	s := New()
	src := &recordingSource{}
	for i := int64(1); i <= 100; i++ {
		src.deadlines = append(src.deadlines, ms(i))
	}
	s.AddSource(src)
	s.RunUntil(ms(50))
	wantSeq(t, "advances", src.advances, ms(50))
	if next, _ := s.Next(); next != ms(51) {
		t.Fatalf("Next=%v, want the first deadline past the target", next)
	}
}

// logSource appends "<name>@<deadline>" to a shared log for every deadline
// an Advance retires, and can schedule work on another source as it does.
type logSource struct {
	name      string
	deadlines []simtime.Time
	log       *[]string
	advances  int
	onRetire  func(at simtime.Time)
}

func (l *logSource) NextEventTime() (simtime.Time, bool) {
	if len(l.deadlines) == 0 {
		return 0, false
	}
	return l.deadlines[0], true
}

func (l *logSource) Advance(now simtime.Time) {
	l.advances++
	for len(l.deadlines) > 0 && !l.deadlines[0].After(now) {
		at := l.deadlines[0]
		l.deadlines = l.deadlines[1:]
		*l.log = append(*l.log, l.name+"@"+time.Duration(at).String())
		if l.onRetire != nil {
			l.onRetire(at)
		}
	}
}

// TestTimerBetweenSourceDeadlines: a timer due between two deadlines of one
// source fires between them — the timer bounds the source's horizon.
func TestTimerBetweenSourceDeadlines(t *testing.T) {
	s := New()
	var log []string
	src := &logSource{name: "a", deadlines: []simtime.Time{ms(2), ms(4), ms(8), ms(9)}, log: &log}
	s.AddSource(src)
	s.At(ms(5), func(simtime.Time) { log = append(log, "timer@5ms") })
	s.RunUntil(ms(20))
	wantSeq(t, "order", log, "a@2ms", "a@4ms", "timer@5ms", "a@8ms", "a@9ms")
	if src.advances != 2 {
		t.Fatalf("%d Advance calls, want 2 (one either side of the timer)", src.advances)
	}
}

// TestInterleavedSourcesStrictOrder: two sources with interleaved deadlines
// run in strict time order, the first registered winning every tie — in
// both directions: the later-registered source stops a tick short of the
// earlier one's deadline, the earlier one runs through the shared instant.
func TestInterleavedSourcesStrictOrder(t *testing.T) {
	s := New()
	var log []string
	a := &logSource{name: "a", deadlines: []simtime.Time{ms(1), ms(4), ms(6), ms(9)}, log: &log}
	b := &logSource{name: "b", deadlines: []simtime.Time{ms(2), ms(3), ms(4), ms(6), ms(7), ms(9)}, log: &log}
	s.AddSource(a)
	s.AddSource(b)
	s.RunUntil(ms(8))
	wantSeq(t, "order", log, "a@1ms", "b@2ms", "b@3ms", "a@4ms", "b@4ms", "a@6ms", "b@6ms", "b@7ms")
	if a.advances != 3 || b.advances != 3 {
		t.Fatalf("advances a=%d b=%d, want 3 and 3", a.advances, b.advances)
	}
	if next, _ := s.Next(); next != ms(9) {
		t.Fatalf("Next=%v, want 9ms left for both", next)
	}
}

// TestSourceSchedulesEarlierWorkElsewhere: work a source creates on another
// source while it advances — with a deadline inside the span it is being
// advanced over — is honoured at the very next step, before anything later.
func TestSourceSchedulesEarlierWorkElsewhere(t *testing.T) {
	s := New()
	var log []string
	b := &logSource{name: "b", log: &log}
	a := &logSource{name: "a", deadlines: []simtime.Time{ms(1), ms(5)}, log: &log}
	a.onRetire = func(at simtime.Time) {
		if at == ms(1) {
			b.deadlines = append(b.deadlines, ms(2), ms(3))
		}
	}
	s.AddSource(a)
	s.AddSource(b)
	s.At(ms(6), func(simtime.Time) { log = append(log, "timer@6ms") })
	s.RunUntil(ms(10))
	// a ran to its horizon (the timer) before b had anything; b's 2ms and
	// 3ms work runs next, still ahead of the timer.
	wantSeq(t, "order", log, "a@1ms", "a@5ms", "b@2ms", "b@3ms", "timer@6ms")
}

// TestRunHorizon verifies a timer beyond RunUntil's target is not
// executed, that one due exactly at the target is, and that RunUntil ties
// go to the source.
func TestRunHorizon(t *testing.T) {
	s := New()
	fired := false
	s.At(ms(10), func(simtime.Time) { fired = true })
	s.RunUntil(ms(9))
	if fired {
		t.Fatal("timer beyond horizon fired")
	}
	if next, ok := s.Next(); !ok || next != ms(10) {
		t.Fatalf("Next=%v,%v, want the timer pending at 10ms", next, ok)
	}
	s.RunUntil(ms(10))
	if !fired {
		t.Fatal("timer due at the target did not fire")
	}

	// Tie at 5ms: RunUntil runs the source before the timer.
	s2 := New()
	var order []string
	src := &logSource{name: "src", deadlines: []simtime.Time{ms(5)}, log: &order}
	s2.AddSource(src)
	s2.At(ms(5), func(simtime.Time) { order = append(order, "timer") })
	s2.RunUntil(ms(5))
	wantSeq(t, "order", order, "src@5ms", "timer")
}

// TestNextMergesTimersAndSources checks Next over both kinds of work.
func TestNextMergesTimersAndSources(t *testing.T) {
	s := New()
	if _, ok := s.Next(); ok {
		t.Fatal("empty scheduler reported work")
	}
	src := &recordingSource{deadlines: []simtime.Time{ms(8)}}
	s.AddSource(src)
	if next, ok := s.Next(); !ok || next != ms(8) {
		t.Fatalf("Next=%v,%v, want 8ms", next, ok)
	}
	tm := s.At(ms(3), func(simtime.Time) {})
	if next, _ := s.Next(); next != ms(3) {
		t.Fatalf("Next=%v, want timer at 3ms", next)
	}
	tm.Stop()
	if next, _ := s.Next(); next != ms(8) {
		t.Fatalf("Next=%v after stop, want 8ms", next)
	}
}

// TestWallDriverManualClock drives the wall driver with a hand-stepped
// clock: work due only becomes visible when the clock passes it and the
// driver is poked.
func TestWallDriverManualClock(t *testing.T) {
	s := New()
	clock := NewManualClock(0)
	var mu sync.Mutex
	d := NewWallDriver(clock, s, &mu)

	fired := make(chan simtime.Time, 1)
	mu.Lock()
	s.At(ms(50), func(now simtime.Time) { fired <- now })
	mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	select {
	case at := <-fired:
		t.Fatalf("timer fired at %v before clock reached it", at)
	case <-time.After(20 * time.Millisecond):
	}

	clock.Set(ms(60))
	d.Poke()
	select {
	case at := <-fired:
		if at != ms(50) {
			t.Fatalf("fired at %v, want 50ms", at)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire after clock advance + poke")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// TestWallDriverRealClock runs a periodic task against the real monotonic
// clock and checks cancellation performs a final catch-up pass.
func TestWallDriverRealClock(t *testing.T) {
	s := New()
	clock := NewWallClock()
	var mu sync.Mutex
	d := NewWallDriver(clock, s, &mu)

	const want = 5
	hits := make(chan struct{}, want)
	mu.Lock()
	s.Every(simtime.Time(simtime.Millisecond), simtime.Millisecond, func(simtime.Time) {
		select {
		case hits <- struct{}{}:
		default:
		}
	})
	mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	for i := 0; i < want; i++ {
		select {
		case <-hits:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d periodic firings", i, want)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// lockedSource is a Source whose state is guarded by the driver lock —
// the shape ctrlplane/health take under the facade runtime.
type lockedSource struct {
	next     simtime.Time
	interval simtime.Duration
	rounds   int
}

func (l *lockedSource) NextEventTime() (simtime.Time, bool) { return l.next, true }

func (l *lockedSource) Advance(now simtime.Time) {
	for !l.next.After(now) {
		l.rounds++
		l.next = l.next.Add(l.interval)
	}
}

// TestSchedulerSoak hammers a wall driver from several goroutines at once —
// scheduling one-shots and periodics, stopping tasks, poking, and reading
// state — for long enough that the race detector gets real interleavings.
// CI runs this test under -race.
func TestSchedulerSoak(t *testing.T) {
	s := New()
	clock := NewWallClock()
	var mu sync.Mutex
	d := NewWallDriver(clock, s, &mu)

	src := &lockedSource{interval: simtime.Duration(500 * 1000)} // 500µs
	mu.Lock()
	s.AddSource(src)
	mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	const (
		workers   = 4
		perWorker = 200
	)
	var fireCount sync.WaitGroup
	fireCount.Add(workers * perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				mu.Lock()
				at := clock.Now().Add(simtime.Duration((i % 7) * int(simtime.Millisecond) / 4))
				task := s.At(at, func(simtime.Time) { fireCount.Done() })
				if i%13 == 0 {
					// Stop-then-let-it-surface exercises lazy cancellation;
					// account for the firing that will never happen.
					task.Stop()
					fireCount.Done()
				}
				mu.Unlock()
				d.Poke()
				if i%31 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()

	waitDone := make(chan struct{})
	go func() { fireCount.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("scheduled work did not all execute")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	mu.Lock()
	rounds := src.rounds
	mu.Unlock()
	if rounds == 0 {
		t.Fatal("source never advanced during soak")
	}
}
