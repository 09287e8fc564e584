package intent

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// ErrNotWarm is what RejoinSwitch returns while a restored member does not
// yet announce every VIP a healthy peer announces or has pending work; the
// Upgrader waits on it, re-announcing after WarmTimeout.
var ErrNotWarm = errors.New("intent: member not warm (VIPs missing or work pending)")

// UpgradeOps is the fleet surface the rolling-upgrade orchestrator
// drives: warm drains, take-down/restore, and drain-gated rejoin.
// silkroad.Cluster satisfies it; defining the interface here keeps the
// dependency arrow pointing the right way (the facade imports intent).
type UpgradeOps interface {
	Switches() int
	DrainSwitch(now simtime.Time, i int) error
	DrainStep(now simtime.Time, budget int) (moved int, done bool, err error)
	CancelDrain(now simtime.Time) error
	UpgradeSwitch(i int) error
	RestoreSwitch(i int) error
	RejoinSwitch(now simtime.Time, i int) error
	RejoinStep(now simtime.Time, budget int) (moved int, done bool, err error)
	CancelRejoin(now simtime.Time) error
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
	// Budget bounds records pumped per Step (default 256).
	Budget int
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
	// Reannounce restores VIP state on a freshly rebooted member —
	// typically the member's reconciler re-applying the spec, or
	// Cluster.ReannounceTo. Called after RestoreSwitch and again on warm
	// timeouts.
	Reannounce func(now simtime.Time, member int) error
	// Tracer receives KindReconcile events with Op "upgrade-*" (nil =
	// untraced).
	Tracer telemetry.Tracer
}

func (c UpgradeConfig) withDefaults() UpgradeConfig {
	if c.Budget <= 0 {
		c.Budget = 256
	}
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
type Upgrader struct {
	cfg   UpgradeConfig
	ops   UpgradeOps
	order []int
	idx   int
	phase UpgradePhase

	retries      int
	lastProgress simtime.Time
	notBefore    simtime.Time
	warmSince    simtime.Time
	rejoinBegun  bool

	phases map[int]UpgradePhase

	// Rollbacks counts cancelled transfers across the rollout.
	Rollbacks uint64
}

// NewUpgrader builds a rollout over ops covering members in order (nil =
// every member ascending).
func NewUpgrader(ops UpgradeOps, order []int, cfg UpgradeConfig) *Upgrader {
	if order == nil {
		for i := 0; i < ops.Switches(); i++ {
			order = append(order, i)
		}
	}
	u := &Upgrader{cfg: cfg.withDefaults(), ops: ops, order: order,
		phases: make(map[int]UpgradePhase)}
	for _, m := range order {
		u.phases[m] = UpgradePending
	}
	return u
}

// Done reports whether every member has been processed.
func (u *Upgrader) Done() bool { return u.idx >= len(u.order) }

// Phase returns member m's rollout phase.
func (u *Upgrader) Phase(m int) UpgradePhase { return u.phases[m] }

// Failed returns the members skipped after exhausting their retries.
func (u *Upgrader) Failed() []int {
	var out []int
	for _, m := range u.order {
		if u.phases[m] == UpgradeFailed {
			out = append(out, m)
		}
	}
	return out
}

// Step advances the rollout by one pump. The caller drives it under
// virtual time, advancing the fleet between calls; done reports rollout
// completion. Errors from the ops surface that are not part of the
// protocol (bad index, dead switch) abort the current member.
func (u *Upgrader) Step(now simtime.Time) (done bool, err error) {
	if u.Done() {
		return true, nil
	}
	if now.Before(u.notBefore) {
		return false, nil
	}
	m := u.order[u.idx]
	switch u.phase {
	case UpgradePending:
		if err := u.ops.DrainSwitch(now, m); err != nil {
			return false, err
		}
		u.setPhase(m, UpgradeDraining)
		u.lastProgress = now

	case UpgradeDraining:
		moved, ddone, err := u.ops.DrainStep(now, u.cfg.Budget)
		if err != nil {
			return false, err
		}
		if moved > 0 {
			u.lastProgress = now
		}
		if ddone {
			if err := u.swap(now, m); err != nil {
				return false, err
			}
			break
		}
		if now.Sub(u.lastProgress) > u.cfg.StallTimeout {
			u.rollback(now, m, "upgrade-drain", u.ops.CancelDrain, UpgradePending)
		}

	case UpgradeRejoining:
		if !u.rejoinBegun {
			switch err := u.ops.RejoinSwitch(now, m); {
			case err == nil:
				u.rejoinBegun = true
				u.lastProgress = now
			case errors.Is(err, ErrNotWarm):
				if now.Sub(u.warmSince) > u.cfg.WarmTimeout {
					// The member never warmed: re-announce and retry.
					u.reannounce(now, m)
					u.warmSince = now
					u.countRetry(now, m, "upgrade-warm")
				}
			default:
				return false, err
			}
			break
		}
		moved, rdone, err := u.ops.RejoinStep(now, u.cfg.Budget)
		if err != nil {
			return false, err
		}
		if moved > 0 {
			u.lastProgress = now
		}
		if rdone {
			u.setPhase(m, UpgradeDone)
			u.event(now, m, telemetry.ReconcileApply, "upgrade-done", nil)
			u.advance()
			break
		}
		if now.Sub(u.lastProgress) > u.cfg.StallTimeout {
			u.rejoinBegun = false
			u.rollback(now, m, "upgrade-rejoin", u.ops.CancelRejoin, UpgradeRejoining)
		}
	}
	return u.Done(), nil
}

// swap is the take-down/bring-up between the two migrations: the drained
// member goes down, comes back fresh, and gets its VIP state
// re-announced before the warm gate is probed.
func (u *Upgrader) swap(now simtime.Time, m int) error {
	if err := u.ops.UpgradeSwitch(m); err != nil {
		return err
	}
	if err := u.ops.RestoreSwitch(m); err != nil {
		return err
	}
	u.reannounce(now, m)
	u.setPhase(m, UpgradeRejoining)
	u.rejoinBegun = false
	u.warmSince = now
	u.lastProgress = now
	u.event(now, m, telemetry.ReconcileApply, "upgrade-swap", nil)
	return nil
}

func (u *Upgrader) reannounce(now simtime.Time, m int) {
	if u.cfg.Reannounce == nil {
		return
	}
	if err := u.cfg.Reannounce(now, m); err != nil {
		u.event(now, m, telemetry.ReconcileRetry, "upgrade-reannounce", err)
	}
}

// rollback cancels the in-flight transfer, emits the rollback event, and
// schedules the retry with exponential backoff. Exhausted retries skip
// the member: a cancelled drain leaves it fully in service; an abandoned
// rejoin leaves its buckets with the survivors — forwarding continues
// either way.
func (u *Upgrader) rollback(now simtime.Time, m int, op string, cancel func(simtime.Time) error, back UpgradePhase) {
	_ = cancel(now)
	u.Rollbacks++
	u.setPhase(m, back)
	u.event(now, m, telemetry.ReconcileRollback, op, nil)
	u.countRetry(now, m, op)
}

func (u *Upgrader) countRetry(now simtime.Time, m int, op string) {
	u.retries++
	if u.retries > u.cfg.MaxRetries {
		u.setPhase(m, UpgradeFailed)
		u.event(now, m, telemetry.ReconcileError, op, nil)
		u.advance()
		return
	}
	d := u.cfg.BaseBackoff
	for i := 1; i < u.retries; i++ {
		d *= 2
		if d >= u.cfg.MaxBackoff {
			d = u.cfg.MaxBackoff
			break
		}
	}
	u.notBefore = now.Add(d)
}

func (u *Upgrader) setPhase(m int, p UpgradePhase) {
	u.phase = p
	u.phases[m] = p
}

func (u *Upgrader) advance() {
	u.idx++
	u.retries = 0
	u.notBefore = 0
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
