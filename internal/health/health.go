// Package health implements §7's DIP failure handling: a BFD-style health
// checker running on the switch, probing every DIP on a fixed interval and
// driving pool membership through the control plane — remove a DIP after a
// run of missed probes, re-add it after a run of successes.
//
// The paper sizes this at 10K DIPs probed every 10 seconds with 100-byte
// packets, about 800 Kbps of probe bandwidth; Metrics reproduces that
// arithmetic. The probe transport is injected so the simulator supplies
// virtual-time liveness and cmd/silkroadd could supply real sockets.
package health

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataplane"
	"repro/internal/simtime"
)

// PoolManager is the slice of the control plane the checker drives.
type PoolManager interface {
	AddDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error
	RemoveDIP(now simtime.Time, vip dataplane.VIP, dip dataplane.DIP) error
}

// ProbeFunc reports whether dip answered a probe sent at now.
type ProbeFunc func(now simtime.Time, dip dataplane.DIP) bool

// Config parameterizes the checker.
type Config struct {
	Interval         simtime.Duration // probe period per DIP (paper: 10 s)
	FailThreshold    int              // consecutive misses before removal (BFD-style multiplier)
	RecoverThreshold int              // consecutive successes before re-adding
	ProbeBytes       int              // probe packet size (paper: 100 B)
}

// DefaultConfig returns the §7 operating point.
func DefaultConfig() Config {
	return Config{
		Interval:         simtime.Duration(10 * simtime.Second),
		FailThreshold:    3,
		RecoverThreshold: 2,
		ProbeBytes:       100,
	}
}

// Metrics counts checker activity.
type Metrics struct {
	ProbesSent  uint64
	ProbeBytes  uint64
	Failovers   uint64 // DIPs removed for health
	Recoveries  uint64 // DIPs re-added after recovery
	ManagerErrs uint64
}

// BandwidthBps returns the probe bandwidth for n targets under cfg — the
// paper's "800 Kbps for 10K DIPs every 10 s" figure.
func (c Config) BandwidthBps(n int) float64 {
	return float64(n) * float64(c.ProbeBytes) * 8 / c.Interval.Seconds()
}

type targetKey struct {
	vip dataplane.VIP
	dip dataplane.DIP
}

// less orders probe targets deterministically (VIP address, port, proto,
// then DIP address, port) so a probe round visits targets in the same
// order every run regardless of map iteration order.
func (a targetKey) less(b targetKey) bool {
	if c := a.vip.Addr.Compare(b.vip.Addr); c != 0 {
		return c < 0
	}
	if a.vip.Port != b.vip.Port {
		return a.vip.Port < b.vip.Port
	}
	if a.vip.Proto != b.vip.Proto {
		return a.vip.Proto < b.vip.Proto
	}
	if c := a.dip.Addr().Compare(b.dip.Addr()); c != 0 {
		return c < 0
	}
	return a.dip.Port() < b.dip.Port()
}

type targetState struct {
	misses    int
	successes int
	down      bool
}

// Checker probes watched (VIP, DIP) pairs and drives pool membership.
//
// Checker is safe for concurrent use: the wall-clock runtime advances it
// from the driver goroutine while the application watches and unwatches
// targets from its own. Probe and pool-manager callbacks run with the
// checker's lock released, so they may call back into the checker
// (Down, Watching, Watch, Unwatch, ...) without deadlocking. A target
// unwatched while a callback for it is in flight is simply skipped when
// the round resumes.
type Checker struct {
	cfg   Config
	mgr   PoolManager
	probe ProbeFunc

	mu        sync.Mutex
	targets   map[targetKey]*targetState
	nextRun   simtime.Time // next round's deadline; the first is the epoch
	advancing bool         // a probe round is in flight (guards reentrant Advance)
	metrics   Metrics
}

// New builds a checker.
func New(cfg Config, mgr PoolManager, probe ProbeFunc) *Checker {
	if cfg.Interval <= 0 || cfg.FailThreshold <= 0 || cfg.RecoverThreshold <= 0 {
		panic("health: degenerate config")
	}
	if mgr == nil || probe == nil {
		panic("health: manager and probe are required")
	}
	return &Checker{
		cfg:     cfg,
		mgr:     mgr,
		probe:   probe,
		targets: make(map[targetKey]*targetState),
	}
}

// Metrics returns a copy of the counters.
func (c *Checker) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// Watch starts probing dip on behalf of vip.
func (c *Checker) Watch(vip dataplane.VIP, dip dataplane.DIP) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := targetKey{vip, dip}
	if _, dup := c.targets[k]; !dup {
		c.targets[k] = &targetState{}
	}
}

// Unwatch stops probing dip for vip.
func (c *Checker) Unwatch(vip dataplane.VIP, dip dataplane.DIP) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.targets, targetKey{vip, dip})
}

// Watching returns the number of probe targets.
func (c *Checker) Watching() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.targets)
}

// Down reports whether the checker currently considers dip failed.
func (c *Checker) Down(vip dataplane.VIP, dip dataplane.DIP) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.targets[targetKey{vip, dip}]
	return ok && st.down
}

// NextEventTime returns when the next probe round is due.
func (c *Checker) NextEventTime() (simtime.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.targets) == 0 {
		return 0, false
	}
	return c.nextRun, true
}

// Advance runs every probe round due at or before now, each at its own
// deadline — the first at the epoch NextEventTime reports, the rest one
// Interval apart — however far past them now lies. Reentrant calls
// (a probe or manager callback driving the scheduler back into the
// checker) are no-ops: the outer round finishes first.
func (c *Checker) Advance(now simtime.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advancing || len(c.targets) == 0 {
		return
	}
	c.advancing = true
	defer func() { c.advancing = false }()
	for len(c.targets) > 0 && !c.nextRun.After(now) {
		at := c.nextRun
		c.nextRun = c.nextRun.Add(c.cfg.Interval)
		c.runRound(at)
	}
}

// runRound probes every target once, in deterministic key order. Called
// (and returns) with c.mu held; the lock is released around every probe
// and pool-manager call, and the target is re-looked-up afterwards so a
// concurrent Unwatch simply drops it from the round.
func (c *Checker) runRound(now simtime.Time) {
	keys := make([]targetKey, 0, len(c.targets))
	for k := range c.targets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		if _, ok := c.targets[k]; !ok {
			continue // unwatched mid-round
		}
		c.metrics.ProbesSent++
		c.metrics.ProbeBytes += uint64(c.cfg.ProbeBytes)
		c.mu.Unlock()
		up := c.probe(now, k.dip)
		c.mu.Lock()
		st, ok := c.targets[k]
		if !ok {
			continue
		}
		if up {
			st.misses = 0
			if !st.down {
				continue
			}
			st.successes++
			if st.successes < c.cfg.RecoverThreshold {
				continue
			}
			c.mu.Unlock()
			err := c.mgr.AddDIP(now, k.vip, k.dip)
			c.mu.Lock()
			if st, ok = c.targets[k]; !ok {
				continue
			}
			if err != nil {
				c.metrics.ManagerErrs++
				continue
			}
			st.down = false
			st.successes = 0
			c.metrics.Recoveries++
			continue
		}
		st.successes = 0
		if st.down {
			continue
		}
		st.misses++
		if st.misses < c.cfg.FailThreshold {
			continue
		}
		c.mu.Unlock()
		err := c.mgr.RemoveDIP(now, k.vip, k.dip)
		c.mu.Lock()
		if st, ok = c.targets[k]; !ok {
			continue
		}
		if err != nil {
			c.metrics.ManagerErrs++
			continue
		}
		st.down = true
		st.misses = 0
		c.metrics.Failovers++
	}
}

// String summarizes checker state.
func (c *Checker) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	down := 0
	for _, st := range c.targets {
		if st.down {
			down++
		}
	}
	return fmt.Sprintf("health: %d targets, %d down, %.0f bps probe bandwidth",
		len(c.targets), down, c.cfg.BandwidthBps(len(c.targets)))
}
