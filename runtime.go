package silkroad

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/health"
	"repro/internal/pipes"
	"repro/internal/sched"
)

// Clock maps the outside world onto the switch's virtual timeline.
// Config.Clock accepts any implementation; NewWallClock and NewManualClock
// cover the common cases.
type Clock = sched.Clock

// NewWallClock returns a monotonic clock anchored at the current instant:
// Time 0 is "now", and readings never jump on NTP adjustments. NewSwitch
// installs one automatically when Config.Clock is nil.
func NewWallClock() Clock { return sched.NewWallClock() }

// NewManualClock returns a hand-stepped clock for tests: it reads start
// until explicitly advanced.
func NewManualClock(start Time) *sched.ManualClock { return sched.NewManualClock(start) }

// ErrRunning is returned by Run when the switch already has an active
// runtime.
var ErrRunning = errors.New("runtime already running")

// eventRuntime is the switch's event runtime: one scheduler carrying the
// switch's engine as a source (learning-filter drains, CPU insertions,
// update transitions and aging on every pipe), the reconciler, any fault
// injector, SLO evaluator and health checkers, and the periodic tasks
// (Every). Its Next is Switch.NextEventTime. The wall-clock driver created
// by Run executes it against Config.Clock; AdvanceTo runs it inline.
type eventRuntime struct {
	clock  Clock
	mu     sync.Mutex // guards sched; the driver lock
	sched  *sched.Scheduler
	driver atomic.Pointer[sched.WallDriver]
}

func newRuntime(clock Clock, eng *pipes.Engine) *eventRuntime {
	if clock == nil {
		clock = sched.NewWallClock()
	}
	rt := &eventRuntime{clock: clock, sched: sched.New()}
	rt.sched.AddSource(eng)
	return rt
}

// Now returns the current instant of the switch's clock (Config.Clock, or
// the wall clock installed at construction).
func (s *Switch) Now() Time { return s.rt.clock.Now() }

// Run executes the switch's event runtime against the clock until ctx is
// cancelled, then returns nil. While Run is active the switch drives
// itself: learning-filter drains, rate-limited CPU insertions, PCC update
// transitions, connection aging, registered health checkers and Every
// tasks all execute autonomously, with no AdvanceTo calls from the caller.
//
// Packet-path methods remain safe to call concurrently; they nudge the
// runtime whenever they may have created earlier work. Only one Run may be
// active at a time; a second concurrent call returns ErrRunning.
func (s *Switch) Run(ctx context.Context) error {
	d := sched.NewWallDriver(s.rt.clock, s.rt.sched, &s.rt.mu)
	if !s.rt.driver.CompareAndSwap(nil, d) {
		return ErrRunning
	}
	defer s.rt.driver.Store(nil)
	return d.Run(ctx)
}

// Every schedules fn to run on the switch runtime every period, first
// firing one period from now. The callback runs on the runtime driver's
// goroutine (once Run is active) and must not block. The returned function
// stops the task; it is safe to call more than once.
func (s *Switch) Every(period Duration, fn func(now Time)) (stop func()) {
	s.rt.mu.Lock()
	task := s.rt.sched.Every(s.rt.clock.Now().Add(period), period, fn)
	s.rt.mu.Unlock()
	s.poke()
	return func() {
		s.rt.mu.Lock()
		task.Stop()
		s.rt.mu.Unlock()
	}
}

// AdvanceTo runs the switch's event runtime synchronously up to now in
// virtual time — the same work Run performs against a clock, executed
// inline and deterministically: the pipes' background work, reconcile
// retries, faults, SLO evaluations, Every tasks and registered health
// checkers all fire in time order. It is the one way a caller moves a
// switch's virtual time; NextEventTime says when it next needs to. When
// Config.Clock is a ManualClock it is stepped to now first, so Switch.Now
// keeps agreeing with the caller's timeline. AdvanceTo and Run are two
// drivers of the same scheduler; do not mix them concurrently.
func (s *Switch) AdvanceTo(now Time) {
	if mc, ok := s.rt.clock.(*sched.ManualClock); ok {
		mc.Set(now)
	}
	s.rt.mu.Lock()
	s.rt.sched.RunUntil(now)
	s.rt.mu.Unlock()
}

// poke nudges an active runtime driver to re-read its deadlines; a no-op
// when Run is not active.
func (s *Switch) poke() {
	if d := s.rt.driver.Load(); d != nil {
		d.Poke()
	}
}

// NewHealthChecker builds a §7-style DIP health checker bound to this
// switch: failed probes drive PCC-preserving RemoveDIP updates, recoveries
// drive AddDIP. The checker is registered with the switch runtime, so
// under Switch.Run it probes autonomously, and a caller driving virtual
// time by hand gets its rounds from AdvanceTo:
//
//	hc := sw.NewHealthChecker(health.DefaultConfig(), probe)
//	hc.Watch(vip, dip)
//	... sw.AdvanceTo(now) ...
func (s *Switch) NewHealthChecker(cfg health.Config, probe health.ProbeFunc) *health.Checker {
	hc := health.New(cfg, s, probe)
	s.rt.mu.Lock()
	s.rt.sched.AddSource(hc)
	s.rt.mu.Unlock()
	s.poke()
	return hc
}
