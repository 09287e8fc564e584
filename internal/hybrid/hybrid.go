// Package hybrid implements §7's "combine with SLB solutions": SilkRoad's
// ConnTable acts as a cache of connections, and connections that overflow
// it are pinned at a software load balancer tier. Every cached connection
// is forwarded purely in hardware; only the overflow spills to software,
// and per-connection consistency holds for both.
package hybrid

import (
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/simtime"
	"repro/internal/slb"
)

// Stats counts the hybrid split.
type Stats struct {
	Packets       uint64
	HardwarePkts  uint64 // served by the switch (ConnTable or VIPTable)
	SoftwarePkts  uint64 // served by the SLB tier (overflow connections)
	OverflowConns uint64 // connections pinned at the SLB
}

// Balancer combines a SilkRoad switch (a one-pipe pipes.Engine, the
// assembly silkroadd runs) with an SLB tier.
type Balancer struct {
	eng   *pipes.Engine
	soft  *slb.Balancer
	stats Stats
	// One-frame batch buffers, reused so Packet does not allocate.
	frame [1]netproto.Frame
	res   [1]dataplane.Result
}

// New builds a hybrid balancer. The control-plane config's OnOverflow hook
// is installed by New; any caller-provided hook is chained after pinning.
func New(dcfg dataplane.Config, ccfg ctrlplane.Config, scfg slb.Config) (*Balancer, error) {
	b := &Balancer{soft: slb.New(scfg)}
	userHook := ccfg.OnOverflow
	ccfg.OnOverflow = func(now simtime.Time, tuple netproto.FiveTuple, dip dataplane.DIP) {
		if b.soft.PinConnection(tuple, dip) {
			b.stats.OverflowConns++
			if userHook != nil {
				userHook(now, tuple, dip)
			}
		}
	}
	eng, err := pipes.New(pipes.Config{Pipes: 1, Dataplane: dcfg, Controlplane: ccfg})
	if err != nil {
		return nil, err
	}
	b.eng = eng
	return b, nil
}

// Stats returns a copy of the counters.
func (b *Balancer) Stats() Stats { return b.stats }

// AddVIP announces a VIP on both tiers.
func (b *Balancer) AddVIP(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	if err := b.eng.AddVIP(now, vip, pool, 0); err != nil {
		return err
	}
	return b.soft.AddVIP(vip, pool)
}

// Update applies a PCC-preserving pool update to both tiers.
func (b *Balancer) Update(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	if err := b.eng.RequestUpdate(now, vip, pool); err != nil {
		return err
	}
	return b.soft.Update(vip, pool)
}

// Packet forwards one packet: the switch first; if the connection is not
// cached in hardware but pinned at the SLB tier, software serves it.
func (b *Balancer) Packet(now simtime.Time, pkt *netproto.Packet) (dataplane.DIP, bool) {
	b.stats.Packets++
	pkt.Frame(&b.frame[0])
	b.eng.ProcessFramesInto(now, b.frame[:], b.res[:])
	res := &b.res[0]
	if res.Verdict != dataplane.VerdictForward {
		return dataplane.DIP{}, false
	}
	if !res.ConnHit && b.soft.HasConn(pkt.Tuple) {
		// Overflow connection: the SLB's ConnTable pins it across pool
		// updates that would remap the unpinned VIPTable path.
		if dip, ok := b.soft.Packet(now, pkt.Tuple); ok {
			b.stats.SoftwarePkts++
			return dip, true
		}
	}
	b.stats.HardwarePkts++
	return res.DIP, true
}

// ConnEnd releases a connection on both tiers.
func (b *Balancer) ConnEnd(now simtime.Time, t netproto.FiveTuple) {
	b.eng.EndConnection(now, t)
	b.soft.ConnEnd(t)
}

// Advance runs switch-software background work.
func (b *Balancer) Advance(now simtime.Time) { b.eng.Advance(now) }

// NextEventTime reports the control plane's earliest pending deadline.
// Together with Advance it lets the balancer ride a sched.Scheduler as a
// due-work source.
func (b *Balancer) NextEventTime() (simtime.Time, bool) { return b.eng.NextEventTime() }

// SoftwareShare returns the fraction of packets served in software.
func (b *Balancer) SoftwareShare() float64 {
	if b.stats.Packets == 0 {
		return 0
	}
	return float64(b.stats.SoftwarePkts) / float64(b.stats.Packets)
}
