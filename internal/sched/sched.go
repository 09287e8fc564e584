// Package sched is the unified event runtime behind every timed behaviour
// in this repository: pending-connection windows, learning-filter drains,
// rate-limited CPU insertions, 3-step PCC update transitions, connection
// aging and health probing all execute through one Scheduler.
//
// The Scheduler owns two kinds of work:
//
//   - Timers: one-shot (At) and periodic (Every) callbacks ordered by
//     (time, scheduling sequence), so simultaneous events fire in FIFO
//     order — the property that keeps seeded simulations bit-reproducible.
//   - Sources: components that already track their own deadlines behind an
//     Advance(now)/NextEventTime() pair (a switch's pipes, its reconciler,
//     a health checker, flowsim's balancer). The scheduler interleaves
//     their background work with timers in strict time order.
//
// One stepping rule orders the two: the earliest-due source is advanced
// not to its own deadline but to its horizon — the last instant before
// anything else (a live timer, another source) is due, capped at the
// driver's target. A source retires a whole backlog of its deadlines in one
// Advance call, in its own time order, and nothing else had work in that
// span, so the global order is the one per-deadline stepping would give at
// a fraction of the polling (see stepSource).
//
// Two drivers execute a scheduler's work, both through RunUntil:
//
//   - The virtual-time driver is RunUntil itself, the discrete-event loop
//     the flow simulator, Switch.AdvanceTo and the examples run on: time
//     jumps instantly from event to event and nothing reads the wall clock,
//     so every run replays identically.
//   - The wall-clock driver (WallDriver) maps simtime onto monotonic real
//     time so a live process (cmd/silkroadd) executes the same work
//     autonomously, calling RunUntil with the clock's reading.
//
// The scheduler itself is not safe for concurrent use; the wall-clock
// driver serializes access through the locker it is built with.
package sched

import (
	"fmt"

	"repro/internal/simtime"
)

// Source is a component with self-managed deadlines. Advance(t) must
// retire all work due at or before t: a source that still reports a
// NextEventTime at or before t after being advanced to t would spin the
// drivers forever. Work due at d executes as of d, in deadline order, however
// far past d the call's t lies — t is a horizon (stepSource), not the
// source's own deadline, so a source that stamps or paces work by t instead
// of d changes behaviour with the driver's step size.
type Source interface {
	// NextEventTime returns the earliest time the source has work due, and
	// whether any work is scheduled.
	NextEventTime() (simtime.Time, bool)
	// Advance runs all of the source's work due at or before now.
	Advance(now simtime.Time)
}

// Task is a handle to a scheduled timer. Stopping it prevents any further
// firings; a stop is permanent.
type Task struct {
	stopped bool
}

// Stop cancels the task. It is safe to call from inside the task's own
// callback (a periodic task then does not reschedule) and safe to call
// more than once.
func (t *Task) Stop() { t.stopped = true }

// timer is one heap entry. Cancellation is lazy: stopped entries stay in
// the heap and are discarded when they surface.
type timer struct {
	at     simtime.Time
	seq    uint64
	period simtime.Duration // 0 = one-shot
	fn     func(now simtime.Time)
	task   *Task
}

// Scheduler is a single event queue: a timer min-heap plus registered
// due-work sources. The zero value is not usable; call New.
type Scheduler struct {
	timers  []timer
	seq     uint64
	sources []Source
}

// New creates an empty scheduler anchored at the simulation epoch.
func New() *Scheduler {
	return &Scheduler{}
}

// AddSource registers a due-work source. Sources registered earlier win
// ties when several have work due at the same instant.
func (s *Scheduler) AddSource(src Source) {
	if src == nil {
		panic("sched: nil source")
	}
	s.sources = append(s.sources, src)
}

// At schedules fn to run once at the given instant. An instant already
// passed fires on the next driver step. The returned task cancels the timer
// when stopped.
func (s *Scheduler) At(at simtime.Time, fn func(now simtime.Time)) *Task {
	return s.push(at, 0, fn)
}

// Every schedules fn to run at first and then every period after its
// previous firing. Stop the returned task to cancel.
func (s *Scheduler) Every(first simtime.Time, period simtime.Duration, fn func(now simtime.Time)) *Task {
	if period <= 0 {
		panic(fmt.Sprintf("sched: non-positive period %v", period))
	}
	return s.push(first, period, fn)
}

func (s *Scheduler) push(at simtime.Time, period simtime.Duration, fn func(now simtime.Time)) *Task {
	if fn == nil {
		panic("sched: nil callback")
	}
	t := &Task{}
	s.pushTimer(timer{at: at, period: period, fn: fn, task: t})
	return t
}

// Next returns the earliest instant at which the scheduler has work due —
// the minimum over live timers and source deadlines — and whether any work
// is scheduled at all.
func (s *Scheduler) Next() (simtime.Time, bool) {
	s.pruneStopped()
	var best simtime.Time
	have := false
	if len(s.timers) > 0 {
		best, have = s.timers[0].at, true
	}
	if bt, _, ok := s.earliestSource(); ok && (!have || bt.Before(best)) {
		best, have = bt, true
	}
	return best, have
}

// earliestSource returns the source with the soonest deadline (first
// registered wins ties).
func (s *Scheduler) earliestSource() (simtime.Time, Source, bool) {
	var (
		best simtime.Time
		src  Source
	)
	for _, c := range s.sources {
		if at, ok := c.NextEventTime(); ok && (src == nil || at.Before(best)) {
			best, src = at, c
		}
	}
	return best, src, src != nil
}

// pruneStopped discards cancelled timers sitting at the heap head so peeks
// see a live deadline.
func (s *Scheduler) pruneStopped() {
	for len(s.timers) > 0 && s.timers[0].task.stopped {
		s.popTimer()
	}
}

// stepSource advances the earliest-due source (first registered wins ties),
// provided it is due at or before limit and no later than the next live
// timer, and reports whether it did. The source is advanced to its horizon:
// the latest instant up to which nothing else has work — limit, the next
// timer (sources win ties with timers, so that instant is included), the
// deadline of every later-registered source (included: this one wins the
// tie) and the tick before the deadline of every earlier-registered one
// (which would win it). Work a source schedules on another source while it
// advances is picked up by the next step's fresh deadline read.
func (s *Scheduler) stepSource(limit simtime.Time) bool {
	s.pruneStopped()
	if len(s.timers) > 0 && s.timers[0].at.Before(limit) {
		limit = s.timers[0].at
	}
	var (
		due     simtime.Time
		src     Source
		horizon = limit
	)
	for _, c := range s.sources {
		at, ok := c.NextEventTime()
		switch {
		case !ok:
		case src == nil:
			due, src = at, c
		case at.Before(due):
			// c displaces an earlier-registered source, which keeps every
			// instant from its own deadline on.
			if due-1 < horizon {
				horizon = due - 1
			}
			due, src = at, c
		case at.Before(horizon):
			horizon = at
		}
	}
	if src == nil || due.After(limit) {
		return false
	}
	src.Advance(horizon)
	return true
}

// RunUntil executes all work due at or before now — source work and timer
// callbacks interleaved in strict time order, sources winning ties. It is
// the one way time moves: the flow simulator, Switch.AdvanceTo and the
// wall-clock driver are all built on it. Each source step covers every
// deadline up to the source's horizon (stepSource), so a backlog of N
// deadlines with nothing else due between them costs one Advance call. Two
// runs that schedule the same work and call RunUntil with the same instants
// execute it in the same order.
func (s *Scheduler) RunUntil(now simtime.Time) {
	for {
		switch {
		case s.stepSource(now):
		case len(s.timers) > 0 && !s.timers[0].at.After(now):
			s.fire(s.popTimer())
		default:
			return
		}
	}
}

// fire executes one timer callback and reschedules periodic tasks.
func (s *Scheduler) fire(tm timer) {
	if tm.task.stopped {
		return
	}
	tm.fn(tm.at)
	if tm.period > 0 && !tm.task.stopped {
		s.pushTimer(timer{at: tm.at.Add(tm.period), period: tm.period, fn: tm.fn, task: tm.task})
	}
}

// --- timer min-heap, ordered by (at, seq) ----------------------------------
//
// Hand-rolled instead of container/heap so pushes and pops stay free of
// interface boxing on the simulator's hottest control path.

func (s *Scheduler) pushTimer(tm timer) {
	tm.seq = s.seq
	s.seq++
	s.timers = append(s.timers, tm)
	s.siftUp(len(s.timers) - 1)
}

func (s *Scheduler) popTimer() timer {
	top := s.timers[0]
	n := len(s.timers) - 1
	s.timers[0] = s.timers[n]
	s.timers[n] = timer{} // release fn/task references
	s.timers = s.timers[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return top
}

func (s *Scheduler) less(i, j int) bool {
	if s.timers[i].at != s.timers[j].at {
		return s.timers[i].at < s.timers[j].at
	}
	return s.timers[i].seq < s.timers[j].seq
}

func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.timers[i], s.timers[parent] = s.timers[parent], s.timers[i]
		i = parent
	}
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.timers)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		s.timers[i], s.timers[min] = s.timers[min], s.timers[i]
		i = min
	}
}
