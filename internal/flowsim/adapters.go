package flowsim

import (
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/duet"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/simtime"
	"repro/internal/slb"
)

// SilkRoadAdapter drives a SilkRoad switch packet by packet: a one-pipe
// pipes.Engine, the assembly silkroadd runs.
type SilkRoadAdapter struct {
	label string
	Eng   *pipes.Engine
	// One-frame batch buffers, reused so Packet does not allocate.
	frame [1]netproto.Frame
	res   [1]dataplane.Result
}

// NewSilkRoad builds a SilkRoad balancer for simulation.
func NewSilkRoad(label string, dcfg dataplane.Config, ccfg ctrlplane.Config) (*SilkRoadAdapter, error) {
	eng, err := pipes.New(pipes.Config{Pipes: 1, Dataplane: dcfg, Controlplane: ccfg})
	if err != nil {
		return nil, err
	}
	return &SilkRoadAdapter{label: label, Eng: eng}, nil
}

// Name implements Balancer.
func (a *SilkRoadAdapter) Name() string { return a.label }

// AddVIP announces a VIP.
func (a *SilkRoadAdapter) AddVIP(vip dataplane.VIP, pool []dataplane.DIP) error {
	return a.Eng.AddVIP(0, vip, pool, 0)
}

// Packet implements Balancer.
func (a *SilkRoadAdapter) Packet(now simtime.Time, t netproto.FiveTuple, syn bool) (dataplane.DIP, bool) {
	pkt := netproto.Packet{Tuple: t, TCPFlags: netproto.FlagACK}
	if syn {
		pkt.TCPFlags = netproto.FlagSYN
	}
	pkt.Frame(&a.frame[0])
	a.Eng.ProcessFramesInto(now, a.frame[:], a.res[:])
	return a.res[0].DIP, a.res[0].Verdict == dataplane.VerdictForward
}

// Pinned implements Balancer: a connection is pinned once its ConnTable
// entry is installed.
func (a *SilkRoadAdapter) Pinned(t netproto.FiveTuple) bool {
	_, ok := a.Eng.Dataplane(a.Eng.PipeOf(t)).LookupConn(t)
	return ok
}

// ConnEnd implements Balancer.
func (a *SilkRoadAdapter) ConnEnd(now simtime.Time, t netproto.FiveTuple) {
	a.Eng.EndConnection(now, t)
}

// Update implements Balancer.
func (a *SilkRoadAdapter) Update(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	return a.Eng.RequestUpdate(now, vip, pool)
}

// Advance implements Balancer.
func (a *SilkRoadAdapter) Advance(now simtime.Time) { a.Eng.Advance(now) }

// NextEventTime implements Balancer.
func (a *SilkRoadAdapter) NextEventTime() (simtime.Time, bool) { return a.Eng.NextEventTime() }

// ExtraBroken implements Balancer (SilkRoad violations are all observable
// as packet-level inconsistencies, which the simulator counts itself).
func (a *SilkRoadAdapter) ExtraBroken() uint64 { return 0 }

// DuetAdapter wraps the Duet model with its periodic migration policy.
type DuetAdapter struct {
	B             *duet.Balancer
	policy        duet.Policy
	nextMigration simtime.Time
}

// NewDuet builds a Duet balancer for simulation.
func NewDuet(policy duet.Policy, seed uint64) *DuetAdapter {
	a := &DuetAdapter{B: duet.New(duet.Config{Policy: policy, Seed: seed}), policy: policy}
	if iv := policy.Interval(); iv > 0 {
		a.nextMigration = simtime.Time(0).Add(iv)
	}
	return a
}

// Name implements Balancer.
func (a *DuetAdapter) Name() string { return "Duet/" + a.policy.String() }

// AddVIP announces a VIP.
func (a *DuetAdapter) AddVIP(vip dataplane.VIP, pool []dataplane.DIP) error {
	return a.B.AddVIP(vip, pool)
}

// Packet implements Balancer.
func (a *DuetAdapter) Packet(now simtime.Time, t netproto.FiveTuple, syn bool) (dataplane.DIP, bool) {
	return a.B.Packet(now, t)
}

// Pinned implements Balancer: Duet pins connections instantly (software
// ConnTable at the SLB, stateless ECMP at switches — no pending window the
// probe train needs to sample).
func (a *DuetAdapter) Pinned(netproto.FiveTuple) bool { return true }

// ConnEnd implements Balancer.
func (a *DuetAdapter) ConnEnd(now simtime.Time, t netproto.FiveTuple) { a.B.ConnEnd(now, t) }

// Update implements Balancer.
func (a *DuetAdapter) Update(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	return a.B.Update(now, vip, pool)
}

// Advance implements Balancer: fire periodic migrations.
func (a *DuetAdapter) Advance(now simtime.Time) {
	iv := a.policy.Interval()
	if iv == 0 {
		return
	}
	for !a.nextMigration.After(now) {
		a.B.MigrateDue(a.nextMigration)
		a.nextMigration = a.nextMigration.Add(iv)
	}
}

// NextEventTime implements Balancer.
func (a *DuetAdapter) NextEventTime() (simtime.Time, bool) {
	if a.policy.Interval() == 0 {
		return 0, false
	}
	return a.nextMigration, true
}

// ExtraBroken implements Balancer: Duet's breaks happen at migration
// instants, counted inside the model.
func (a *DuetAdapter) ExtraBroken() uint64 { return a.B.Stats().BrokenConns }

// SLBLoadFraction reports the share of connection-time served by SLBs.
func (a *DuetAdapter) SLBLoadFraction() float64 {
	s := a.B.Stats()
	if s.TotalConnTime == 0 {
		return 0
	}
	f := float64(s.DetourConnTime) / float64(s.TotalConnTime)
	if f > 1 {
		f = 1
	}
	return f
}

// SLBAdapter wraps the pure software load balancer.
type SLBAdapter struct {
	B *slb.Balancer
}

// NewSLB builds a software LB for simulation.
func NewSLB() *SLBAdapter { return &SLBAdapter{B: slb.New(slb.DefaultConfig())} }

// Name implements Balancer.
func (a *SLBAdapter) Name() string { return "SLB" }

// AddVIP announces a VIP.
func (a *SLBAdapter) AddVIP(vip dataplane.VIP, pool []dataplane.DIP) error {
	return a.B.AddVIP(vip, pool)
}

// Packet implements Balancer.
func (a *SLBAdapter) Packet(now simtime.Time, t netproto.FiveTuple, syn bool) (dataplane.DIP, bool) {
	return a.B.Packet(now, t)
}

// Pinned implements Balancer.
func (a *SLBAdapter) Pinned(netproto.FiveTuple) bool { return true }

// ConnEnd implements Balancer.
func (a *SLBAdapter) ConnEnd(now simtime.Time, t netproto.FiveTuple) { a.B.ConnEnd(t) }

// Update implements Balancer.
func (a *SLBAdapter) Update(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	return a.B.Update(vip, pool)
}

// Advance implements Balancer.
func (a *SLBAdapter) Advance(simtime.Time) {}

// NextEventTime implements Balancer.
func (a *SLBAdapter) NextEventTime() (simtime.Time, bool) { return 0, false }

// ExtraBroken implements Balancer: SLBs never break connections on
// updates.
func (a *SLBAdapter) ExtraBroken() uint64 { return 0 }

// SLBLoadFraction: a pure SLB design serves everything in software.
func (a *SLBAdapter) SLBLoadFraction() float64 { return 1 }
