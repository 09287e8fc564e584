package intent

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// ErrNotWarm is what RejoinSwitch returns while a restored member does not
// yet announce every VIP a healthy peer announces or has pending work; the
// Upgrader waits for UpgradeOps.Warm instead, re-announcing after
// WarmTimeout.
var ErrNotWarm = errors.New("intent: member not warm (VIPs missing or work pending)")

// UpgradeOps is the fleet surface the rolling-upgrade orchestrator
// drives: warm drains, take-down/restore and re-announce, and warm-gated
// rejoin. The fleet pumps the transfers itself; the orchestrator only
// starts, watches and cancels them. silkroad.Cluster provides it; defining
// the interface here keeps the dependency arrow pointing the right way
// (the facade imports intent).
type UpgradeOps interface {
	Switches() int
	DrainSwitch(now simtime.Time, i int) error
	UpgradeSwitch(i int) error
	RestoreSwitch(i int) error
	// Reannounce restores VIP state on freshly rebooted member i.
	Reannounce(now simtime.Time, i int) error
	RejoinSwitch(now simtime.Time, i int) error
	// CancelTransfer abandons the drain or rejoin in flight.
	CancelTransfer(now simtime.Time) error
	// Transfer reports whether a drain or rejoin is in flight and how many
	// records it has moved: its completion and the stall check's progress.
	Transfer() (active bool, moved uint64)
	// Warm reports whether member i would pass RejoinSwitch's warm gate.
	Warm(i int) bool
}

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

// UpgradeConfig parameterizes an Upgrader.
type UpgradeConfig struct {
	// StallTimeout rolls the in-flight transfer back after this long with
	// zero progress (default 2s virtual).
	StallTimeout simtime.Duration
	// BaseBackoff delays the retry after a rollback, doubling per attempt
	// up to MaxBackoff (defaults 100ms / 5s).
	BaseBackoff simtime.Duration
	MaxBackoff  simtime.Duration
	// MaxRetries bounds rollbacks per member before it is skipped — left
	// serving on the old version rather than wedging the rollout
	// (default 4).
	MaxRetries int
	// WarmTimeout bounds how long the rejoin waits on the warm gate
	// before re-announcing and counting a retry (default 2s virtual).
	WarmTimeout simtime.Duration
	// Tracer receives KindReconcile events with Op "upgrade-*" (nil =
	// untraced).
	Tracer telemetry.Tracer
}

func (c UpgradeConfig) withDefaults() UpgradeConfig {
	if c.StallTimeout <= 0 {
		c.StallTimeout = 2 * simtime.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * simtime.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * simtime.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.WarmTimeout <= 0 {
		c.WarmTimeout = 2 * simtime.Second
	}
	return c
}

// Upgrader rolls a fleet through drain -> migrate -> upgrade -> rejoin,
// one member at a time, gated on handoff completion: a member is taken
// down only after its shard has warm-migrated to peers, and takes
// traffic again only after its shard has migrated back through the warm
// gate. Stalled transfers roll back (the drain cancels, the member keeps
// serving) and retry with exponential backoff; a member that exhausts
// its retries is skipped, never wedged half-out of service.
//
// It is a sched.Source on the fleet's timeline. Its timers are the start
// or retry of a drain, the stall check and the warm timeout; its waits are
// level-triggered: once the transfer it watches has finished, or the
// member it rejoins is warm, it is due at the fleet's current instant,
// which now reads.
type Upgrader struct {
	cfg   UpgradeConfig
	ops   UpgradeOps
	now   func() simtime.Time
	order []int
	idx   int
	phase UpgradePhase

	retries     int
	notBefore   simtime.Time // no step before: the start, or a retry's backoff
	at          simtime.Time // the stall check, or the warm timeout
	lastMoved   uint64       // the transfer's progress at the last stall check
	rejoinBegun bool

	phases map[int]UpgradePhase

	// Rollbacks counts cancelled transfers across the rollout.
	Rollbacks uint64
}

// NewUpgrader builds a rollout over ops covering members in order (nil =
// every member ascending), starting at now; clock reads the fleet's
// current instant.
func NewUpgrader(ops UpgradeOps, clock func() simtime.Time, now simtime.Time, order []int, cfg UpgradeConfig) *Upgrader {
	if order == nil {
		for i := 0; i < ops.Switches(); i++ {
			order = append(order, i)
		}
	}
	u := &Upgrader{cfg: cfg.withDefaults(), ops: ops, now: clock, order: order,
		notBefore: now, phases: make(map[int]UpgradePhase)}
	for _, m := range order {
		u.phases[m] = UpgradePending
	}
	return u
}

// Done reports whether every member has been processed.
func (u *Upgrader) Done() bool { return u.idx >= len(u.order) }

// Phase returns member m's rollout phase.
func (u *Upgrader) Phase(m int) UpgradePhase { return u.phases[m] }

// Failed returns the members skipped after exhausting their retries or
// on an error from the ops surface.
func (u *Upgrader) Failed() []int {
	var out []int
	for _, m := range u.order {
		if u.phases[m] == UpgradeFailed {
			out = append(out, m)
		}
	}
	return out
}

// NextEventTime returns when the rollout next has work: a drain's start,
// the fleet's current instant once the watched transfer has finished or
// the rejoining member is warm, or else the stall check or warm timeout.
// Nothing happens before a retry's backoff ends.
func (u *Upgrader) NextEventTime() (simtime.Time, bool) {
	switch {
	case u.Done():
		return 0, false
	case u.phase == UpgradePending:
		return u.notBefore, true
	case u.ready():
		return max(u.now(), u.notBefore), true
	}
	return max(u.at, u.notBefore), true
}

// ready reports whether the member's level-triggered wait is over: it is
// warm (a rejoin not yet begun), or its transfer is no longer active.
func (u *Upgrader) ready() bool {
	if u.phase == UpgradeRejoining && !u.rejoinBegun {
		return u.ops.Warm(u.order[u.idx])
	}
	active, _ := u.ops.Transfer()
	return !active
}

// Advance runs every step due at or before now, each at its own deadline.
// Errors from the ops surface that are not part of the protocol (bad
// index, dead switch) fail the current member and move on.
func (u *Upgrader) Advance(now simtime.Time) {
	for {
		due, ok := u.NextEventTime()
		if !ok || now.Before(due) {
			return
		}
		u.step(due)
	}
}

// step moves the current member one transition at now.
func (u *Upgrader) step(now simtime.Time) {
	m := u.order[u.idx]
	switch {
	case u.phase == UpgradePending:
		if err := u.ops.DrainSwitch(now, m); err != nil {
			u.fail(now, m, "upgrade-drain", err)
			return
		}
		u.setPhase(m, UpgradeDraining)
		u.watch(now)

	case u.phase == UpgradeRejoining && !u.rejoinBegun:
		if u.ops.Warm(m) {
			if err := u.ops.RejoinSwitch(now, m); err != nil {
				u.fail(now, m, "upgrade-rejoin", err)
				return
			}
			u.rejoinBegun = true
			u.watch(now)
			return
		}
		if !now.Before(u.at) {
			// The member never warmed: re-announce and retry.
			u.reannounce(now, m)
			u.at = now.Add(u.cfg.WarmTimeout)
			u.countRetry(now, m, "upgrade-warm")
		}

	default: // a drain or rejoin in flight
		active, moved := u.ops.Transfer()
		switch {
		case !active && u.phase == UpgradeDraining:
			u.swap(now, m)
		case !active:
			u.setPhase(m, UpgradeDone)
			u.event(now, m, telemetry.ReconcileApply, "upgrade-done", nil)
			u.advance(now)
		case moved != u.lastMoved:
			u.lastMoved, u.at = moved, now.Add(u.cfg.StallTimeout)
		case u.phase == UpgradeDraining:
			u.rollback(now, m, "upgrade-drain", UpgradePending)
		default:
			u.rejoinBegun = false
			u.rollback(now, m, "upgrade-rejoin", UpgradeRejoining)
		}
	}
}

// watch starts the stall check on a transfer begun at now.
func (u *Upgrader) watch(now simtime.Time) {
	u.lastMoved, u.at = 0, now.Add(u.cfg.StallTimeout)
}

// swap is the take-down/bring-up between the two migrations: the drained
// member goes down, comes back fresh, and gets its VIP state
// re-announced before the warm gate is probed.
func (u *Upgrader) swap(now simtime.Time, m int) {
	err := u.ops.UpgradeSwitch(m)
	if err == nil {
		err = u.ops.RestoreSwitch(m)
	}
	if err != nil {
		u.fail(now, m, "upgrade-swap", err)
		return
	}
	u.reannounce(now, m)
	u.setPhase(m, UpgradeRejoining)
	u.rejoinBegun = false
	u.at = now.Add(u.cfg.WarmTimeout)
	u.event(now, m, telemetry.ReconcileApply, "upgrade-swap", nil)
}

func (u *Upgrader) reannounce(now simtime.Time, m int) {
	if err := u.ops.Reannounce(now, m); err != nil {
		u.event(now, m, telemetry.ReconcileRetry, "upgrade-reannounce", err)
	}
}

// rollback cancels the in-flight transfer, emits the rollback event, and
// schedules the retry with exponential backoff. Exhausted retries skip
// the member: a cancelled drain leaves it fully in service; an abandoned
// rejoin leaves its buckets with the survivors — forwarding continues
// either way.
func (u *Upgrader) rollback(now simtime.Time, m int, op string, back UpgradePhase) {
	_ = u.ops.CancelTransfer(now)
	u.Rollbacks++
	u.setPhase(m, back)
	u.event(now, m, telemetry.ReconcileRollback, op, nil)
	u.countRetry(now, m, op)
}

func (u *Upgrader) countRetry(now simtime.Time, m int, op string) {
	u.retries++
	if u.retries > u.cfg.MaxRetries {
		u.fail(now, m, op, nil)
		return
	}
	u.notBefore = now.Add(backoff(u.cfg.BaseBackoff, u.cfg.MaxBackoff, u.retries))
}

// fail skips member m: its retries ran out, or the ops surface returned
// err.
func (u *Upgrader) fail(now simtime.Time, m int, op string, err error) {
	u.setPhase(m, UpgradeFailed)
	u.event(now, m, telemetry.ReconcileError, op, err)
	u.advance(now)
}

func (u *Upgrader) setPhase(m int, p UpgradePhase) {
	u.phase = p
	u.phases[m] = p
}

// advance moves on to the next member, whose drain starts at now.
func (u *Upgrader) advance(now simtime.Time) {
	u.idx++
	u.retries = 0
	u.notBefore = now
	u.rejoinBegun = false
	if !u.Done() {
		u.phase = UpgradePending
	}
}

func (u *Upgrader) event(now simtime.Time, m int, step telemetry.ReconcileStep, op string, err error) {
	if u.cfg.Tracer == nil {
		return
	}
	e := telemetry.Event{Kind: telemetry.KindReconcile, Now: now, Member: m, ReconcileStep: step, Op: op}
	if err != nil {
		e.Err = err.Error()
	}
	u.cfg.Tracer.Trace(e)
}
