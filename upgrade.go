package silkroad

import (
	"fmt"

	"repro/internal/intent"
	"repro/internal/telemetry"
)

// UpgradePhase is one member's position in the rollout.
type UpgradePhase uint8

// Rollout phases. A member in UpgradeFailed was left IN SERVICE (drain
// rolled back) or serving without its buckets (rejoin abandoned); either
// way the fleet keeps forwarding.
const (
	UpgradePending UpgradePhase = iota
	UpgradeDraining
	UpgradeRejoining
	UpgradeDone
	UpgradeFailed
)

var upgradePhaseNames = [...]string{"pending", "draining", "rejoining", "done", "failed"}

func (p UpgradePhase) String() string {
	if int(p) < len(upgradePhaseNames) {
		return upgradePhaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// UpgradeConfig tunes a rolling upgrade (Cluster.StartUpgrade): the stall
// timeout, the retry backoff and retry limit, the warm timeout and the
// tracer.
type UpgradeConfig struct {
	// StallTimeout rolls the in-flight transfer back after this long with
	// zero progress (default 2s virtual).
	StallTimeout Duration
	// BaseBackoff delays the retry after a rollback, doubling per attempt
	// up to MaxBackoff (defaults 100ms / 5s).
	BaseBackoff Duration
	MaxBackoff  Duration
	// MaxRetries bounds rollbacks per member before it is skipped — left
	// serving on the old version rather than wedging the rollout
	// (default 4).
	MaxRetries int
	// WarmTimeout bounds how long the rejoin waits on the warm gate
	// before re-announcing and counting a retry (default 2s virtual).
	WarmTimeout Duration
	// Tracer receives KindReconcile events with Op "upgrade-*" (nil =
	// untraced).
	Tracer telemetry.Tracer
}

func (c UpgradeConfig) withDefaults() UpgradeConfig {
	if c.StallTimeout <= 0 {
		c.StallTimeout = 2 * Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.WarmTimeout <= 0 {
		c.WarmTimeout = 2 * Second
	}
	return c
}

// Upgrader rolls a fleet through drain -> migrate -> upgrade -> rejoin,
// one member at a time, gated on handoff completion: a member is taken
// down only after its shard has warm-migrated to peers, and takes
// traffic again only after its shard has migrated back through the warm
// gate. Stalled transfers roll back (the drain cancels, the member keeps
// serving) and retry with exponential backoff, as does a transfer that
// something else cancelled (FailSwitch, CancelTransfer); a member that
// exhausts its retries is skipped, never wedged half-out of service.
//
// It is a source on the fleet's timeline, run under the cluster lock. Its
// timers are the start or retry of a drain, the stall check and the warm
// timeout; its waits are level-triggered: once the transfer it watches is
// no longer active, or the member it rejoins is warm, it is due at the
// fleet's current instant. Read it between Cluster.AdvanceTo calls.
type Upgrader struct {
	cfg   UpgradeConfig
	c     *Cluster
	order []int
	idx   int // the member in order being upgraded

	// x is the drain or rejoin the upgrader started and watches; nil while
	// none is (a pending member, or a rejoin waiting on the warm gate).
	x         *transfer
	retries   int
	notBefore Time   // no step before: the start, or a retry's backoff
	at        Time   // the stall check, or the warm timeout
	lastMoved uint64 // x's progress at the last stall check

	phases map[int]UpgradePhase // by member; UpgradePending is the zero value

	// Rollbacks counts cancelled transfers across the rollout.
	Rollbacks uint64
}

// newUpgrader builds a rollout of c covering members in order (nil =
// every member ascending), starting at now.
func newUpgrader(c *Cluster, now Time, order []int, cfg UpgradeConfig) *Upgrader {
	if order == nil {
		for i := range c.sws {
			order = append(order, i)
		}
	}
	return &Upgrader{cfg: cfg.withDefaults(), c: c, order: order,
		notBefore: now, phases: make(map[int]UpgradePhase)}
}

// Done reports whether every member has been processed.
func (u *Upgrader) Done() bool { return u.idx >= len(u.order) }

// Phase returns member m's rollout phase.
func (u *Upgrader) Phase(m int) UpgradePhase { return u.phases[m] }

// Failed returns the members skipped after exhausting their retries or
// on an error from the fleet.
func (u *Upgrader) Failed() []int {
	var out []int
	for _, m := range u.order {
		if u.phases[m] == UpgradeFailed {
			out = append(out, m)
		}
	}
	return out
}

// nextEventTime returns when the rollout next has work: a drain's start,
// the fleet's current instant once the watched transfer is no longer
// active or the rejoining member is warm, or else the stall check or warm
// timeout. Nothing happens before a retry's backoff ends.
func (u *Upgrader) nextEventTime() (Time, bool) {
	switch {
	case u.Done():
		return 0, false
	case u.phases[u.order[u.idx]] == UpgradePending:
		return u.notBefore, true
	case u.ready():
		return max(u.c.now, u.notBefore), true
	}
	return max(u.at, u.notBefore), true
}

// ready reports whether the member's level-triggered wait is over: it is
// warm (a rejoin not yet begun), or its transfer is no longer active.
func (u *Upgrader) ready() bool {
	if u.x == nil {
		return u.c.warm(u.order[u.idx])
	}
	return u.c.xfer != u.x
}

// advance runs every step due at or before now, each at its own deadline.
// Errors from the fleet that are not part of the protocol (bad index,
// dead switch) fail the current member and move on.
func (u *Upgrader) advance(now Time) {
	for {
		due, ok := u.nextEventTime()
		if !ok || now.Before(due) {
			return
		}
		u.step(due)
	}
}

// step moves the current member one transition at now.
func (u *Upgrader) step(now Time) {
	m := u.order[u.idx]
	switch {
	case u.phases[m] == UpgradePending:
		if err := u.c.drainSwitch(now, m); err != nil {
			u.fail(now, m, "upgrade-drain", err)
			return
		}
		u.phases[m] = UpgradeDraining
		u.watch(now)

	case u.x == nil: // a rejoin waiting on the warm gate
		if u.c.warm(m) {
			if err := u.c.rejoinSwitch(now, m); err != nil {
				u.fail(now, m, "upgrade-rejoin", err)
				return
			}
			u.watch(now)
			return
		}
		if !now.Before(u.at) {
			// The member never warmed: re-announce and retry.
			u.reannounce(now, m)
			u.at = now.Add(u.cfg.WarmTimeout)
			u.countRetry(now, m, "upgrade-warm")
		}

	default: // a drain or rejoin in flight, or just ended
		switch {
		case u.x.done && u.phases[m] == UpgradeDraining:
			u.swap(now, m)
		case u.x.done:
			u.phases[m] = UpgradeDone
			u.event(now, m, telemetry.ReconcileApply, "upgrade-done", nil)
			u.nextMember(now)
		case u.c.xfer != u.x:
			// Cancelled under the upgrader: FailSwitch took a member it
			// involves out of service, or a caller cancelled it.
			u.rollback(now, m)
		case u.x.moved != u.lastMoved:
			u.lastMoved, u.at = u.x.moved, now.Add(u.cfg.StallTimeout)
		default: // stalled
			u.c.cancelTransfer(now)
			u.rollback(now, m)
		}
	}
}

// watch starts the stall check on the transfer the fleet began at now.
func (u *Upgrader) watch(now Time) {
	u.x, u.lastMoved, u.at = u.c.xfer, 0, now.Add(u.cfg.StallTimeout)
}

// swap is the take-down/bring-up between the two migrations: the drained
// member goes down, comes back fresh, and gets its VIP state
// re-announced before the warm gate is probed.
func (u *Upgrader) swap(now Time, m int) {
	u.x = nil
	err := u.c.upgradeSwitch(m)
	if err == nil {
		err = u.c.restoreSwitch(m)
	}
	if err != nil {
		u.fail(now, m, "upgrade-swap", err)
		return
	}
	u.reannounce(now, m)
	u.phases[m] = UpgradeRejoining
	u.at = now.Add(u.cfg.WarmTimeout)
	u.event(now, m, telemetry.ReconcileApply, "upgrade-swap", nil)
}

func (u *Upgrader) reannounce(now Time, m int) {
	if err := u.c.reannounce(now, m); err != nil {
		u.event(now, m, telemetry.ReconcileRetry, "upgrade-reannounce", err)
	}
}

// rollback counts the watched transfer, no longer active, as rolled back,
// emits the rollback event, and schedules the retry with exponential
// backoff: a drain starts again, a rejoin waits on the warm gate again.
// Exhausted retries skip the member: a cancelled drain leaves it fully in
// service; an abandoned rejoin leaves its buckets with the survivors —
// forwarding continues either way.
func (u *Upgrader) rollback(now Time, m int) {
	op, back := "upgrade-drain", UpgradePending
	if u.phases[m] == UpgradeRejoining {
		op, back = "upgrade-rejoin", UpgradeRejoining
	}
	u.x = nil
	u.Rollbacks++
	u.phases[m] = back
	u.event(now, m, telemetry.ReconcileRollback, op, nil)
	u.countRetry(now, m, op)
}

func (u *Upgrader) countRetry(now Time, m int, op string) {
	u.retries++
	if u.retries > u.cfg.MaxRetries {
		u.fail(now, m, op, nil)
		return
	}
	u.notBefore = now.Add(intent.Backoff(u.cfg.BaseBackoff, u.cfg.MaxBackoff, u.retries))
}

// fail skips member m: its retries ran out, or the fleet returned err.
func (u *Upgrader) fail(now Time, m int, op string, err error) {
	u.phases[m] = UpgradeFailed
	u.event(now, m, telemetry.ReconcileError, op, err)
	u.nextMember(now)
}

// nextMember moves on to the next member, whose drain starts at now.
func (u *Upgrader) nextMember(now Time) {
	u.idx++
	u.retries = 0
	u.notBefore = now
	u.x = nil
}

func (u *Upgrader) event(now Time, m int, step telemetry.ReconcileStep, op string, err error) {
	if u.cfg.Tracer == nil {
		return
	}
	e := telemetry.Event{Kind: telemetry.KindReconcile, Now: now, Member: m, ReconcileStep: step, Op: op}
	if err != nil {
		e.Err = err.Error()
	}
	u.cfg.Tracer.Trace(e)
}
