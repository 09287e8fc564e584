// Package cluster models a network-wide SilkRoad deployment (§5.3/§7):
// every switch in a layer announces every VIP, upstream routers spray
// connections across the switches with resilient ECMP, and each switch
// holds ConnTable state only for the connections sprayed to it.
//
// The package exists to exercise the paper's two network-wide claims:
//
//   - DIP pool updates are applied to every switch; because all switches
//     run the same VIPTable and the same hash functions, a connection
//     that lands on any switch while on the *latest* pool version maps to
//     the same DIP everywhere.
//   - When a switch fails, its connections are redirected to the
//     surviving switches by ECMP. Connections that were using the latest
//     version keep their DIP (the new switch computes the same mapping);
//     connections pinned to an older version at the failed switch can
//     break — "the same issue with an SLB failure in the software load
//     balancing case" (§7).
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// Config parameterizes a deployment.
type Config struct {
	Switches         int
	BucketsPerSwitch int // resilient-ECMP spray granularity
	Dataplane        dataplane.Config
	Controlplane     ctrlplane.Config
	SpraySeed        uint64
}

// DefaultConfig returns an n-switch deployment where each switch is
// provisioned for connsPerSwitch connections.
func DefaultConfig(n, connsPerSwitch int) Config {
	return Config{
		Switches:         n,
		BucketsPerSwitch: 128,
		Dataplane:        dataplane.DefaultConfig(connsPerSwitch),
		Controlplane:     ctrlplane.DefaultConfig(),
		SpraySeed:        0x5b4a7,
	}
}

type member struct {
	sw    *dataplane.Switch
	cp    *ctrlplane.ControlPlane
	alive bool
}

// Cluster is one layer's SilkRoad deployment.
type Cluster struct {
	cfg     Config
	members []*member
	// spray is the upstream resilient-ECMP table: bucket -> switch index.
	spray  []int
	origin []int // original owner of each bucket (for rejoin)

	// in-flight connection-state transfers (handoff.go)
	drain  *drainState
	rejoin *rejoinState
	// SLB backstop hooks (SetBackstop)
	backstop    func(now simtime.Time, t netproto.FiveTuple, dip dataplane.DIP) bool
	backstopEnd func(now simtime.Time, t netproto.FiveTuple)

	// stats
	Redirected   uint64        // connections moved cold by switch failures
	Migrated     uint64        // spray buckets moved warm by drains/rejoins
	BackstopPins uint64        // entries pinned to the SLB backstop
	LastHandoff  handoff.Stats // counters of the last completed transfer
}

// New builds the deployment. All switches share hash seeds (the paper's
// design requires identical VIPTable behaviour across switches).
func New(cfg Config) (*Cluster, error) {
	if cfg.Switches <= 0 {
		return nil, errors.New("cluster: need at least one switch")
	}
	if cfg.BucketsPerSwitch <= 0 {
		cfg.BucketsPerSwitch = 128
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Switches; i++ {
		sw, err := dataplane.New(cfg.Dataplane)
		if err != nil {
			return nil, fmt.Errorf("cluster: switch %d: %w", i, err)
		}
		c.members = append(c.members, &member{
			sw:    sw,
			cp:    ctrlplane.New(sw, cfg.Controlplane),
			alive: true,
		})
	}
	n := cfg.Switches * cfg.BucketsPerSwitch
	c.spray = make([]int, n)
	c.origin = make([]int, n)
	for i := range c.spray {
		c.spray[i] = i % cfg.Switches
		c.origin[i] = i % cfg.Switches
	}
	return c, nil
}

// Switches returns the number of switches.
func (c *Cluster) Switches() int { return len(c.members) }

// Member exposes switch i's control plane (inspection, direct driving).
func (c *Cluster) Member(i int) *ctrlplane.ControlPlane { return c.members[i].cp }

// AliveCount returns the number of healthy switches.
func (c *Cluster) AliveCount() int {
	n := 0
	for _, m := range c.members {
		if m.alive {
			n++
		}
	}
	return n
}

// Alive reports whether switch i is in service.
func (c *Cluster) Alive(i int) bool { return c.members[i].alive }

// AddVIP announces a VIP on every switch.
func (c *Cluster) AddVIP(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	for i, m := range c.members {
		if err := m.cp.AddVIP(now, vip, pool, 0); err != nil {
			return fmt.Errorf("cluster: switch %d: %w", i, err)
		}
	}
	return nil
}

// Update applies a PCC-preserving DIP pool update on every switch — the
// network-wide equivalent of one operational change.
func (c *Cluster) Update(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	for i, m := range c.members {
		if err := m.cp.RequestUpdate(now, vip, pool); err != nil {
			return fmt.Errorf("cluster: switch %d: %w", i, err)
		}
	}
	return nil
}

// sprayIndex picks the switch for a connection.
func (c *Cluster) sprayIndex(t netproto.FiveTuple) int {
	return c.spray[c.bucketOf(t)]
}

// Packet routes one packet: resilient ECMP to a switch, then that
// switch's full pipeline. It returns the chosen DIP, the switch index,
// and whether the packet was forwarded.
func (c *Cluster) Packet(now simtime.Time, pkt *netproto.Packet) (dataplane.DIP, int, bool) {
	i := c.sprayIndex(pkt.Tuple)
	m := c.members[i]
	if !m.alive {
		// The spray table should never point at a dead switch; treat as a
		// blackhole if it does (misconfiguration).
		return dataplane.DIP{}, i, false
	}
	var f netproto.Frame
	pkt.Frame(&f)
	var res dataplane.Result
	m.cp.ProcessFrameInto(now, &f, &res)
	return res.DIP, i, res.Verdict == dataplane.VerdictForward
}

// ConnEnd releases a connection on its current switch.
func (c *Cluster) ConnEnd(now simtime.Time, t netproto.FiveTuple) {
	i := c.sprayIndex(t)
	c.members[i].cp.EndConnection(now, t)
}

// Advance runs background work on every switch.
func (c *Cluster) Advance(now simtime.Time) {
	for _, m := range c.members {
		if m.alive {
			m.cp.Advance(now)
		}
	}
}

// FailSwitch takes switch i out of service: its spray buckets move to
// survivors (resilient ECMP), redirecting its connections; the switch's
// ConnTable state is lost.
func (c *Cluster) FailSwitch(i int) error {
	if i < 0 || i >= len(c.members) {
		return errors.New("cluster: no such switch")
	}
	m := c.members[i]
	if !m.alive {
		return errors.New("cluster: switch already failed")
	}
	survivors := make([]int, 0, len(c.members)-1)
	for j, o := range c.members {
		if j != i && o.alive {
			survivors = append(survivors, j)
		}
	}
	if len(survivors) == 0 {
		return errors.New("cluster: cannot fail the last switch")
	}
	k := 0
	for b := range c.spray {
		if c.spray[b] == i {
			c.spray[b] = survivors[k%len(survivors)]
			k++
			c.Redirected++
		}
	}
	m.alive = false
	return nil
}

// RestoreSwitch brings switch i back with a FRESH, empty ConnTable (state
// does not survive reboots). It does NOT return the member's spray
// buckets: a rebooted switch with a cold table must not take traffic —
// connections pinned to retired pool versions would break on it. The
// survivors keep serving until RejoinSwitch has re-announced state,
// passed the warm gate, and migrated the member's shard back.
func (c *Cluster) RestoreSwitch(i int) error {
	if i < 0 || i >= len(c.members) {
		return errors.New("cluster: no such switch")
	}
	m := c.members[i]
	if m.alive {
		return errors.New("cluster: switch is alive")
	}
	sw, err := dataplane.New(c.cfg.Dataplane)
	if err != nil {
		return err
	}
	m.sw = sw
	m.cp = ctrlplane.New(sw, c.cfg.Controlplane)
	m.alive = true
	return nil
}

// ReannounceTo re-installs the current VIP state on a restored switch
// (the BGP re-announce after reboot). The caller supplies the latest
// VIP->pool map, typically from any healthy member.
func (c *Cluster) ReannounceTo(now simtime.Time, i int, vips map[dataplane.VIP][]dataplane.DIP) error {
	m := c.members[i]
	for vip, pool := range vips {
		if err := m.cp.AddVIP(now, vip, pool, 0); err != nil {
			return err
		}
	}
	return nil
}

// Dataplane exposes switch i's data plane (fault injection, shadow
// inspection). After RestoreSwitch the returned pointer is the fresh
// instance; callers must not cache it across restores.
func (c *Cluster) Dataplane(i int) *dataplane.Switch { return c.members[i].sw }

// ShadowVersion reads a connection's pinned pool version through the
// exact-tuple CPU shadow of the switch its tuple currently sprays to —
// the PCC ground truth (digest aliasing cannot touch it). Returns the
// member index even when the entry is absent, so callers can tell
// redirection from expiry.
func (c *Cluster) ShadowVersion(t netproto.FiveTuple) (member int, version uint32, ok bool) {
	i := c.sprayIndex(t)
	m := c.members[i]
	if !m.alive {
		return i, 0, false
	}
	v, ok := m.sw.LookupConn(t)
	return i, v, ok
}

// TotalConns sums tracked connections across healthy switches.
func (c *Cluster) TotalConns() int {
	n := 0
	for _, m := range c.members {
		if m.alive {
			n += m.cp.TrackedConns()
		}
	}
	return n
}
