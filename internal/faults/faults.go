// Package faults is the seeded fault-injection layer behind the chaos
// experiments: a deterministic schedule of component misbehaviours —
// correlated DIP failure bursts, switch-CPU stalls and slowdowns, forced
// ConnTable pressure, learning-filter digest loss — applied to a running
// switch through the same event scheduler that drives everything else.
//
// A Plan is data: a seed plus a time-ordered list of Events. Generate
// builds one from a seeded RNG, so the same GenConfig always yields the
// same schedule. An Injector executes a Plan against a Target (the
// facade's multi-pipe switch) as a sched.Source: each fault fires at its
// virtual-time deadline, interleaved with packets, learn flushes and CPU
// insertions in strict time order. Runs are therefore reproducible down
// to the individual fault — the property the chaos soak's
// identical-report invariant rests on.
//
// The injector deliberately attacks components through the same narrow
// knobs an operator or a broken environment would: DIP health is faked by
// failing probes (WrapProbe), CPU trouble goes through the control
// plane's stall/rate hooks, SRAM pressure through the ConnTable occupancy
// limit, digest loss through the learning filter's loss hook. Nothing in
// the forwarding path knows the faults package exists.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/dataplane"
	"repro/internal/health"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Kind identifies one fault class.
type Kind int

const (
	// DIPDown marks a DIP failed: probes wrapped by WrapProbe report it
	// dead until a matching DIPUp. Duration > 0 auto-schedules the DIPUp.
	DIPDown Kind = iota
	// DIPUp clears a DIPDown.
	DIPUp
	// CPUStall freezes the switch CPU: every queued insertion and the
	// CPU-free horizon slip by Duration, as if the insertion thread lost
	// the CPU entirely.
	CPUStall
	// CPUSlow scales the CPU's insertion rate by Scale (0.5 = half speed)
	// for Duration, then restores full speed. A per-pipe brownout.
	CPUSlow
	// TableLimit caps ConnTable occupancy at Limit entries for Duration,
	// forcing ErrTableFull and SRAM-watermark pressure without filling
	// real memory.
	TableLimit
	// DigestLoss drops each new learn digest with probability Scale for
	// Duration, as if the hardware learning channel were lossy.
	DigestLoss

	kindCount int = iota
)

// String names the fault kind as it appears in telemetry and journals.
func (k Kind) String() string {
	switch k {
	case DIPDown:
		return "dip_down"
	case DIPUp:
		return "dip_up"
	case CPUStall:
		return "cpu_stall"
	case CPUSlow:
		return "cpu_slow"
	case TableLimit:
		return "table_limit"
	case DigestLoss:
		return "digest_loss"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault. Which fields matter depends on Kind:
// every event has At; Pipe selects a pipe (-1 = all pipes) for CPU,
// table and digest faults; DIP names the victim of DIPDown/DIPUp;
// Duration bounds transient faults (0 = permanent for CPUSlow,
// TableLimit and DigestLoss, instantaneous for CPUStall whose stall
// length is Duration itself); Scale is the CPUSlow rate multiplier
// (0.25 = 4x slower) or the DigestLoss drop probability; Limit is the
// TableLimit entry cap.
type Event struct {
	At       simtime.Time
	Kind     Kind
	Pipe     int // -1 = all pipes
	DIP      dataplane.DIP
	Duration simtime.Duration
	Scale    float64
	Limit    int
}

// Plan is a deterministic fault schedule: the seed it was generated from
// (also the base seed for digest-loss RNG streams) and its events.
type Plan struct {
	Seed   uint64
	Events []Event
}

// GenConfig parameterizes Generate. Counts of zero disable a category.
// The generator knows nothing about the switch, so TableLimit is an
// absolute entry count chosen by the caller.
type GenConfig struct {
	Seed       uint64
	Start, End simtime.Time // window the faults land in
	Pipes      int          // pipe count; per-pipe faults pick 0..Pipes-1

	DIPs       []dataplane.DIP  // victims for failure bursts
	DIPBursts  int              // correlated failure bursts
	BurstSize  int              // DIPs per burst (capped at len(DIPs))
	DIPDownFor simtime.Duration // outage length per failed DIP

	CPUStalls int // hard CPU freezes
	StallFor  simtime.Duration

	Brownouts     int     // CPUSlow events
	BrownoutScale float64 // insertion-rate multiplier (0.25 = 4x slower)
	BrownoutFor   simtime.Duration

	TableSqueezes int // TableLimit events
	TableLimit    int // absolute occupancy cap during a squeeze
	SqueezeFor    simtime.Duration

	DigestLossWindows int
	DigestLossRate    float64
	DigestLossFor     simtime.Duration
}

// Generate builds a Plan from cfg. Same cfg (including Seed) ⇒ same
// Plan: categories are generated in a fixed order from one seeded RNG
// stream and then stably sorted by time.
func Generate(cfg GenConfig) Plan {
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	span := int64(cfg.End.Sub(cfg.Start))
	at := func() simtime.Time {
		if span <= 0 {
			return cfg.Start
		}
		return cfg.Start.Add(simtime.Duration(rng.Int63n(span)))
	}
	pipe := func() int {
		if cfg.Pipes <= 1 {
			return 0
		}
		return rng.Intn(cfg.Pipes)
	}
	var evs []Event

	burst := cfg.BurstSize
	if burst > len(cfg.DIPs) {
		burst = len(cfg.DIPs)
	}
	for b := 0; b < cfg.DIPBursts && burst > 0; b++ {
		t := at()
		picked := rng.Perm(len(cfg.DIPs))[:burst]
		sort.Ints(picked) // stable victim order within a burst
		for _, i := range picked {
			evs = append(evs, Event{
				At: t, Kind: DIPDown, Pipe: -1,
				DIP: cfg.DIPs[i], Duration: cfg.DIPDownFor,
			})
		}
	}
	for i := 0; i < cfg.CPUStalls; i++ {
		evs = append(evs, Event{At: at(), Kind: CPUStall, Pipe: pipe(), Duration: cfg.StallFor})
	}
	for i := 0; i < cfg.Brownouts; i++ {
		evs = append(evs, Event{
			At: at(), Kind: CPUSlow, Pipe: pipe(),
			Duration: cfg.BrownoutFor, Scale: cfg.BrownoutScale,
		})
	}
	for i := 0; i < cfg.TableSqueezes; i++ {
		evs = append(evs, Event{
			At: at(), Kind: TableLimit, Pipe: -1,
			Duration: cfg.SqueezeFor, Limit: cfg.TableLimit,
		})
	}
	for i := 0; i < cfg.DigestLossWindows; i++ {
		evs = append(evs, Event{
			At: at(), Kind: DigestLoss, Pipe: pipe(),
			Duration: cfg.DigestLossFor, Scale: cfg.DigestLossRate,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
	return Plan{Seed: cfg.Seed, Events: evs}
}

// Target is the slice of the switch the injector manipulates. All calls
// are made with the injector's lock released.
type Target interface {
	NumPipes() int
	// StallCPU freezes pipe's insertion CPU for d starting at now.
	StallCPU(now simtime.Time, pipe int, d simtime.Duration)
	// SetInsertRateScale multiplies pipe's insertion rate (0.5 = half
	// speed; 1 or 0 = normal).
	SetInsertRateScale(pipe int, scale float64)
	// SetConnTableLimit caps pipe's ConnTable occupancy (0 = uncapped).
	SetConnTableLimit(pipe int, limit int)
	// SetLearnLoss drops new learn digests on pipe with the given
	// probability from a seed-deterministic stream (rate <= 0 = off).
	SetLearnLoss(pipe int, rate float64, seed uint64)
}

// Metrics counts applied fault actions.
type Metrics struct {
	Injected uint64          // total actions applied (including reverts)
	ByKind   map[Kind]uint64 // per-kind action counts
}

// action is one normalized step of the plan: reverts for transient
// faults are synthesized at build time so execution is a pure
// time-ordered walk.
type action struct {
	at simtime.Time
	ev Event
}

// Injector executes a Plan against a Target as a sched.Source.
//
// It is safe for concurrent use. Fault actions, tracer callbacks and
// Target calls run with the injector's lock released, so a probe or
// tracer may call back into the injector.
type Injector struct {
	mu       sync.Mutex
	target   Target
	tracer   telemetry.Tracer
	actions  []action
	next     int
	down     map[dataplane.DIP]int // DIP -> outstanding DIPDown count
	counts   [kindCount]uint64
	injected uint64
	seed     uint64
}

// NewInjector builds an injector for plan. Transient events are expanded
// into apply/revert action pairs and the whole schedule is stably sorted
// by time.
func NewInjector(plan Plan, target Target) *Injector {
	if target == nil {
		panic("faults: target is required")
	}
	inj := &Injector{
		target: target,
		down:   make(map[dataplane.DIP]int),
		seed:   plan.Seed,
	}
	for _, ev := range plan.Events {
		inj.actions = append(inj.actions, action{at: ev.At, ev: ev})
		if ev.Duration <= 0 {
			continue
		}
		end := ev.At.Add(ev.Duration)
		switch ev.Kind {
		case DIPDown:
			inj.actions = append(inj.actions, action{at: end,
				ev: Event{At: end, Kind: DIPUp, Pipe: ev.Pipe, DIP: ev.DIP}})
		case CPUSlow:
			inj.actions = append(inj.actions, action{at: end,
				ev: Event{At: end, Kind: CPUSlow, Pipe: ev.Pipe, Scale: 1}})
		case TableLimit:
			inj.actions = append(inj.actions, action{at: end,
				ev: Event{At: end, Kind: TableLimit, Pipe: ev.Pipe, Limit: 0}})
		case DigestLoss:
			inj.actions = append(inj.actions, action{at: end,
				ev: Event{At: end, Kind: DigestLoss, Pipe: ev.Pipe, Scale: 0}})
		}
	}
	sort.SliceStable(inj.actions, func(i, j int) bool {
		return inj.actions[i].at.Before(inj.actions[j].at)
	})
	return inj
}

// SetTracer attaches a telemetry tracer: every applied action emits one
// KindFault event.
func (inj *Injector) SetTracer(tr telemetry.Tracer) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.tracer = tr
}

// NextEventTime returns the deadline of the next unapplied action.
func (inj *Injector) NextEventTime() (simtime.Time, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.next >= len(inj.actions) {
		return 0, false
	}
	return inj.actions[inj.next].at, true
}

// Advance applies every action due at or before now, in schedule order.
// DIP state flips under the lock (so WrapProbe observes the change
// atomically); Target and tracer calls run unlocked.
func (inj *Injector) Advance(now simtime.Time) {
	inj.mu.Lock()
	var due []action
	for inj.next < len(inj.actions) && !inj.actions[inj.next].at.After(now) {
		a := inj.actions[inj.next]
		inj.next++
		switch a.ev.Kind {
		case DIPDown:
			inj.down[a.ev.DIP]++
		case DIPUp:
			if inj.down[a.ev.DIP]--; inj.down[a.ev.DIP] <= 0 {
				delete(inj.down, a.ev.DIP)
			}
		}
		inj.counts[a.ev.Kind]++
		inj.injected++
		due = append(due, a)
	}
	target, tracer, seed := inj.target, inj.tracer, inj.seed
	inj.mu.Unlock()

	for _, a := range due {
		inj.apply(target, seed, a)
		if tracer != nil {
			tracer.Trace(telemetry.Event{
				Kind: telemetry.KindFault, Now: a.at, Pipe: a.ev.Pipe, Fault: a.ev.Kind.String(),
				DIP: a.ev.DIP, Duration: a.ev.Duration,
				Scale: a.ev.Scale, Limit: a.ev.Limit,
			})
		}
	}
}

// apply executes one action against the target, fanning Pipe == -1 out
// to every pipe.
func (inj *Injector) apply(target Target, seed uint64, a action) {
	if a.ev.Kind == DIPDown || a.ev.Kind == DIPUp {
		return // probe-level faults: no target call; WrapProbe does the work
	}
	lo, hi := a.ev.Pipe, a.ev.Pipe+1
	if a.ev.Pipe < 0 {
		lo, hi = 0, target.NumPipes()
	}
	for p := lo; p < hi; p++ {
		switch a.ev.Kind {
		case CPUStall:
			target.StallCPU(a.at, p, a.ev.Duration)
		case CPUSlow:
			target.SetInsertRateScale(p, a.ev.Scale)
		case TableLimit:
			target.SetConnTableLimit(p, a.ev.Limit)
		case DigestLoss:
			// Diversify the stream per pipe so parallel pipes do not drop
			// the same offer positions.
			target.SetLearnLoss(p, a.ev.Scale, seed^(uint64(p+1)*0x9e3779b97f4a7c15))
		}
	}
}

// DIPDown reports whether dip is currently held down by the injector.
func (inj *Injector) DIPDown(dip dataplane.DIP) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.down[dip] > 0
}

// WrapProbe layers injected DIP failures over a real probe: a held-down
// DIP never answers; otherwise the wrapped probe decides (nil = always
// healthy).
func (inj *Injector) WrapProbe(p health.ProbeFunc) health.ProbeFunc {
	return func(now simtime.Time, dip dataplane.DIP) bool {
		if inj.DIPDown(dip) {
			return false
		}
		if p == nil {
			return true
		}
		return p(now, dip)
	}
}

// Metrics returns a copy of the action counters.
func (inj *Injector) Metrics() Metrics {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	m := Metrics{Injected: inj.injected, ByKind: make(map[Kind]uint64)}
	for k, n := range inj.counts {
		if n > 0 {
			m.ByKind[Kind(k)] = n
		}
	}
	return m
}

// Remaining returns the number of unapplied actions.
func (inj *Injector) Remaining() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return len(inj.actions) - inj.next
}

// Len returns the total number of actions in the normalized schedule
// (plan events plus synthesized reverts).
func (inj *Injector) Len() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return len(inj.actions)
}
