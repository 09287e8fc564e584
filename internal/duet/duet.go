// Package duet implements the Duet [22] baseline: VIPTable lives in switch
// ASICs (ECMP over the DIP pool, no per-connection state in hardware) and
// ConnTable lives in software load balancers.
//
// The consequence the paper builds on (§3.2): whenever a VIP's DIP pool
// changes, that VIP's traffic must detour to SLBs, which ensure PCC in
// software. The open question is when to migrate the VIP back to switches:
//
//   - Migrate-10min / Migrate-1min: periodic migration. Connections that
//     pre-date the latest update get re-hashed by switch ECMP over the
//     current pool and may break (PCC violations, Figure 5b/16).
//   - Migrate-PCC: wait until every connection that pre-dates the update
//     has terminated — zero violations, but the VIP's traffic can sit on
//     SLBs almost permanently under frequent updates (Figure 5a).
package duet

import (
	"errors"

	"repro/internal/dataplane"
	"repro/internal/hashing"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// Policy selects the migration strategy.
type Policy uint8

// Migration policies.
const (
	Migrate10min Policy = iota
	Migrate1min
	MigratePCC
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Migrate10min:
		return "Migrate-10min"
	case Migrate1min:
		return "Migrate-1min"
	case MigratePCC:
		return "Migrate-PCC"
	default:
		return "Migrate-?"
	}
}

// Interval returns the periodic migration interval (0 for MigratePCC).
func (p Policy) Interval() simtime.Duration {
	switch p {
	case Migrate10min:
		return simtime.Duration(10 * simtime.Minute)
	case Migrate1min:
		return simtime.Duration(simtime.Minute)
	default:
		return 0
	}
}

// Config parameterizes the Duet model.
type Config struct {
	Policy Policy
	Seed   uint64
}

// Stats counts Duet activity and the Figure 5 quantities.
type Stats struct {
	Packets        uint64
	SwitchPackets  uint64 // served by switch ECMP
	SLBPackets     uint64 // served during detour
	Updates        uint64
	Migrations     uint64
	BrokenConns    uint64           // PCC violations at migration
	DetourConnTime simtime.Duration // live-connection time spent detoured
	TotalConnTime  simtime.Duration
}

type connState struct {
	tuple   netproto.FiveTuple
	vip     dataplane.VIP
	dip     dataplane.DIP
	started simtime.Time
	broken  bool
}

type vipState struct {
	pool         []dataplane.DIP
	detoured     bool
	detourSince  simtime.Time
	lastUpdateAt simtime.Time
	conns        map[uint64]*connState
}

// Balancer is the network-wide Duet model: one logical VIPTable (switches
// behave identically) plus the SLB tier's ConnTable.
type Balancer struct {
	cfg   Config
	vips  map[dataplane.VIP]*vipState
	stats Stats
}

// New creates a Duet balancer.
func New(cfg Config) *Balancer {
	return &Balancer{cfg: cfg, vips: make(map[dataplane.VIP]*vipState)}
}

// Stats returns a copy of the counters.
func (b *Balancer) Stats() Stats { return b.stats }

// AddVIP announces a VIP on the switches.
func (b *Balancer) AddVIP(vip dataplane.VIP, pool []dataplane.DIP) error {
	if len(pool) == 0 {
		return errors.New("duet: empty pool")
	}
	if _, dup := b.vips[vip]; dup {
		return errors.New("duet: VIP exists")
	}
	b.vips[vip] = &vipState{
		pool:  append([]dataplane.DIP(nil), pool...),
		conns: make(map[uint64]*connState),
	}
	return nil
}

// keyHash hashes the tuple for ECMP/ConnTable addressing.
func (b *Balancer) keyHash(t netproto.FiveTuple) uint64 {
	return netproto.TupleHash(b.cfg.Seed^0xd0e7, &t)
}

// ecmpSelect is the switch hash: ECMP over the current pool.
func ecmpSelect(pool []dataplane.DIP, keyHash uint64) dataplane.DIP {
	return pool[hashing.HashUint64(0xec3b, keyHash)%uint64(len(pool))]
}

// Packet processes one packet. On the switch path the DIP comes from ECMP
// over the current pool; on the detour path the SLB's ConnTable pins it.
// Either way the connection's state is tracked so migrations can assess
// breakage.
func (b *Balancer) Packet(now simtime.Time, t netproto.FiveTuple) (dataplane.DIP, bool) {
	b.stats.Packets++
	vip := dataplane.VIPOf(t)
	vs, ok := b.vips[vip]
	if !ok {
		return dataplane.DIP{}, false
	}
	kh := b.keyHash(t)
	cs, known := vs.conns[kh]
	if !known {
		cs = &connState{tuple: t, vip: vip, started: now}
		// New connection: both paths assign by the current pool (the SLB
		// mimics switch ECMP for new connections so that migration back
		// does not break them).
		cs.dip = ecmpSelect(vs.pool, kh)
		vs.conns[kh] = cs
	}
	if vs.detoured {
		b.stats.SLBPackets++
		// SLB ConnTable pins cs.dip regardless of pool changes.
		return cs.dip, true
	}
	b.stats.SwitchPackets++
	// Switch path: stateless ECMP over the current pool. For connections
	// whose recorded DIP differs (survivors of an early migration), this
	// IS the PCC break; Migrate() already counted it and rebound them.
	return ecmpSelect(vs.pool, kh), true
}

// Update applies a DIP pool change to vip: the VIP detours to SLBs (if not
// already detoured) and the pool is swapped.
func (b *Balancer) Update(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	vs, ok := b.vips[vip]
	if !ok {
		return errors.New("duet: unknown VIP")
	}
	if len(pool) == 0 {
		return errors.New("duet: empty pool")
	}
	if !vs.detoured {
		vs.detoured = true
		vs.detourSince = now
	}
	vs.pool = append([]dataplane.DIP(nil), pool...)
	vs.lastUpdateAt = now
	b.stats.Updates++
	return nil
}

// MigrateDue performs the policy's migrations at time now. For periodic
// policies the caller invokes it on the policy interval; for Migrate-PCC
// on every connection end. It returns the number of connections broken by
// this round of migrations.
func (b *Balancer) MigrateDue(now simtime.Time) int {
	broken := 0
	for _, vs := range b.vips {
		if !vs.detoured {
			continue
		}
		if b.cfg.Policy == MigratePCC && !b.oldConnsGone(vs) {
			continue
		}
		broken += b.migrate(now, vs)
	}
	return broken
}

// oldConnsGone reports whether every connection predating the VIP's last
// update has terminated.
func (b *Balancer) oldConnsGone(vs *vipState) bool {
	for _, cs := range vs.conns {
		if cs.started.Before(vs.lastUpdateAt) {
			return false
		}
	}
	return true
}

// migrate moves one VIP back to switches: connections whose pinned DIP
// disagrees with switch ECMP over the current pool break.
func (b *Balancer) migrate(now simtime.Time, vs *vipState) int {
	broken := 0
	for kh, cs := range vs.conns {
		mapped := ecmpSelect(vs.pool, kh)
		if mapped != cs.dip && !cs.broken {
			cs.broken = true
			b.stats.BrokenConns++
			broken++
			// The application re-establishes; model the re-bound conn as
			// following the switch mapping from here on.
			cs.dip = mapped
		}
		since := vs.detourSince
		if cs.started.After(since) {
			since = cs.started
		}
		b.stats.DetourConnTime += simtime.Duration(now.Sub(since))
	}
	vs.detoured = false
	b.stats.Migrations++
	return broken
}

// ConnEnd removes a terminated connection, accumulating detour accounting.
func (b *Balancer) ConnEnd(now simtime.Time, t netproto.FiveTuple) {
	vip := dataplane.VIPOf(t)
	vs, ok := b.vips[vip]
	if !ok {
		return
	}
	kh := b.keyHash(t)
	cs, ok := vs.conns[kh]
	if !ok {
		return
	}
	b.stats.TotalConnTime += simtime.Duration(now.Sub(cs.started))
	if vs.detoured {
		since := vs.detourSince
		if cs.started.After(since) {
			since = cs.started
		}
		b.stats.DetourConnTime += simtime.Duration(now.Sub(since))
	}
	delete(vs.conns, kh)
	if b.cfg.Policy == MigratePCC && vs.detoured && b.oldConnsGone(vs) {
		b.migrate(now, vs)
	}
}
