// Package flowsim is the flow-level discrete-event simulator the
// evaluation runs on (the paper's §3.2/§6 experiments): connections arrive
// per VIP as a Poisson process, live for sampled durations, and send
// packets densely while their state is still pending in the load balancer;
// DIP pool updates arrive as rolling-reboot events (remove a DIP, re-add it
// after its sampled downtime).
//
// The simulator is balancer-agnostic: SilkRoad (the real dataplane +
// ctrlplane driven packet by packet), Duet, and SLB implementations plug in
// behind the Balancer interface. Per-connection consistency is checked by
// the simulator itself: the first packet's DIP is recorded and every later
// packet must match.
//
// The event loop is the virtual-time driver of internal/sched: arrivals,
// probes, flow ends and pool updates are scheduler timers, and the
// balancer's background work (CPU insertions, migrations) runs as a
// scheduler source, interleaved in strict (time, sequence) order. Seeded
// runs are bit-reproducible.
package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Balancer is the device under test.
type Balancer interface {
	// Name labels result rows.
	Name() string
	// Packet processes one packet and returns the DIP it was forwarded to.
	// ok=false means the packet was not forwarded (no VIP, drop).
	Packet(now simtime.Time, t netproto.FiveTuple, syn bool) (dataplane.DIP, bool)
	// Pinned reports whether the balancer has durable per-connection state
	// for t (pending connections keep getting probed until pinned).
	Pinned(t netproto.FiveTuple) bool
	// ConnEnd signals flow termination.
	ConnEnd(now simtime.Time, t netproto.FiveTuple)
	// Update applies a DIP pool change.
	Update(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error
	// Advance runs background work (CPU insertions, migrations) up to now.
	// Together with NextEventTime it satisfies sched.Source, so the
	// balancer plugs straight into the scheduler as a due-work source.
	Advance(now simtime.Time)
	// NextEventTime returns the next time background work is due.
	NextEventTime() (simtime.Time, bool)
	// ExtraBroken reports PCC violations the balancer detects internally
	// (e.g. Duet counts breaks at migration instants, which packet probes
	// cannot observe).
	ExtraBroken() uint64
}

// Config parameterizes one simulation run.
type Config struct {
	VIPs          int
	PoolSize      int
	ArrivalRate   float64 // new connections per second, aggregate
	FlowClass     workload.TrafficClass
	UpdatesPerMin float64          // aggregate DIP pool update events per minute
	Duration      simtime.Duration // simulated time
	ProbeInterval simtime.Duration // packet spacing while pending (~RTT)
	MaxProbes     int              // safety cap per connection
	Seed          int64
	ClusterType   workload.ClusterType // drives downtime/cause sampling
	// IPv6 runs the workload over IPv6 VIPs/DIPs/clients, exercising the
	// 37-byte connection keys Backends use (§6.1).
	IPv6 bool
	// VIPSkew is the Zipf exponent for VIP popularity (0 = uniform).
	// Production VIP traffic is heavily skewed — a handful of VIPs carry
	// most connections (Figure 8's tail).
	VIPSkew float64
}

// DefaultConfig returns a PoP-like configuration scaled for fast runs.
func DefaultConfig() Config {
	return Config{
		VIPs:          16,
		PoolSize:      16,
		ArrivalRate:   2000,
		FlowClass:     workload.Hadoop,
		UpdatesPerMin: 10,
		Duration:      simtime.Duration(30 * simtime.Second),
		ProbeInterval: simtime.Duration(250 * simtime.Microsecond),
		MaxProbes:     400,
		Seed:          1,
		ClusterType:   workload.PoP,
	}
}

// Results summarizes one run.
type Results struct {
	Balancer       string
	Conns          uint64
	Packets        uint64
	BrokenConns    uint64 // connections with >= 1 inconsistent packet
	UpdatesApplied uint64
	// SLBLoadFraction is the share of connection-time served by SLBs
	// (meaningful for Duet; 0 for pure-switch or pure-software designs).
	SLBLoadFraction float64
	SimulatedTime   simtime.Duration
}

// BrokenFraction returns broken conns / total conns.
func (r Results) BrokenFraction() float64 {
	if r.Conns == 0 {
		return 0
	}
	return float64(r.BrokenConns) / float64(r.Conns)
}

// BrokenPerMinute normalizes violations to a per-minute rate.
func (r Results) BrokenPerMinute() float64 {
	m := r.SimulatedTime.Minutes()
	if m == 0 {
		return 0
	}
	return float64(r.BrokenConns) / m
}

// String renders a result row.
func (r Results) String() string {
	return fmt.Sprintf("%-22s conns=%-8d broken=%-6d (%.5f%%) slbLoad=%.3f updates=%d",
		r.Balancer, r.Conns, r.BrokenConns, 100*r.BrokenFraction(), r.SLBLoadFraction, r.UpdatesApplied)
}

type conn struct {
	tuple    netproto.FiveTuple
	vip      dataplane.VIP
	firstDIP dataplane.DIP
	endAt    simtime.Time
	probes   int
	broken   bool
	alive    bool
}

// vipPools tracks the simulator's own view of each VIP's pool for the
// rolling-reboot update generator.
type vipPools struct {
	vip  dataplane.VIP
	live []dataplane.DIP
	down []downDIP
	next int // next fresh DIP index for provisioning
}

type downDIP struct {
	dip     dataplane.DIP
	reAddAt simtime.Time
}

// Sim is one simulation instance.
type Sim struct {
	cfg    Config
	bal    Balancer
	rng    *rand.Rand
	rt     *sched.Scheduler
	vips   []*vipPools
	vipCum []float64 // cumulative VIP popularity (Zipf)
	conns  map[netproto.FiveTuple]*conn
	res    Results
}

// New builds a simulation, announcing cfg.VIPs VIPs on the balancer.
func New(cfg Config, bal Balancer) (*Sim, error) {
	if cfg.VIPs <= 0 || cfg.PoolSize <= 0 || cfg.ArrivalRate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("flowsim: degenerate config %+v", cfg)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = simtime.Duration(250 * simtime.Microsecond)
	}
	if cfg.MaxProbes <= 0 {
		cfg.MaxProbes = 400
	}
	s := &Sim{
		cfg:   cfg,
		bal:   bal,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		rt:    sched.New(),
		conns: make(map[netproto.FiveTuple]*conn),
	}
	s.rt.AddSource(bal)
	for i := 0; i < cfg.VIPs; i++ {
		addr := netip.AddrFrom4([4]byte{20, 0, byte(i >> 8), byte(i)})
		if cfg.IPv6 {
			addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(i >> 8), 15: byte(i)})
		}
		vip := dataplane.VIP{
			Addr:  addr,
			Port:  80,
			Proto: netproto.ProtoTCP,
		}
		vp := &vipPools{vip: vip}
		for d := 0; d < cfg.PoolSize; d++ {
			vp.live = append(vp.live, s.dipFor(i, vp.next))
			vp.next++
		}
		s.vips = append(s.vips, vp)
	}
	// Zipf popularity: weight(i) = 1/(i+1)^skew.
	s.vipCum = make([]float64, cfg.VIPs)
	sum := 0.0
	for i := range s.vipCum {
		w := 1.0
		if cfg.VIPSkew > 0 {
			w = 1 / math.Pow(float64(i+1), cfg.VIPSkew)
		}
		sum += w
		s.vipCum[i] = sum
	}
	return s, nil
}

// pickVIP samples a VIP by popularity.
func (s *Sim) pickVIP() *vipPools {
	r := s.rng.Float64() * s.vipCum[len(s.vipCum)-1]
	lo, hi := 0, len(s.vipCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.vipCum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.vips[lo]
}

// dipFor generates the d-th DIP of VIP i.
func (s *Sim) dipFor(vipIdx, d int) dataplane.DIP {
	if s.cfg.IPv6 {
		return netip.AddrPortFrom(netip.AddrFrom16(
			[16]byte{0xfd, 0x10, 13: byte(vipIdx), 14: byte(d >> 8), 15: byte(d)}), 20)
	}
	return netip.AddrPortFrom(
		netip.AddrFrom4([4]byte{10, byte(vipIdx), byte(d >> 8), byte(d)}), 20)
}

// AnnounceVIPs installs all VIPs on a balancer via the given function
// (adapters differ in their announce signatures).
func (s *Sim) AnnounceVIPs(announce func(vip dataplane.VIP, pool []dataplane.DIP) error) error {
	for _, vp := range s.vips {
		if err := announce(vp.vip, vp.live); err != nil {
			return err
		}
	}
	return nil
}

// expInterval draws an exponential inter-arrival for the given rate/sec.
func (s *Sim) expInterval(ratePerSec float64) simtime.Duration {
	if ratePerSec <= 0 {
		return simtime.Duration(math.MaxInt64 / 4)
	}
	sec := s.rng.ExpFloat64() / ratePerSec
	d := simtime.Duration(sec * float64(simtime.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// Run executes the simulation and returns its results. The scheduler's
// RunUntil interleaves balancer background work with simulation timers in
// strict time order and runs the balancer up to the end of the run.
func (s *Sim) Run() Results {
	end := simtime.Time(0).Add(s.cfg.Duration)
	s.rt.At(simtime.Time(0).Add(s.expInterval(s.cfg.ArrivalRate)), s.arrivalEvent)
	if s.cfg.UpdatesPerMin > 0 {
		s.rt.At(simtime.Time(0).Add(s.expInterval(s.cfg.UpdatesPerMin/60)), s.updateEvent)
	}
	s.rt.RunUntil(end)
	// Flush: end all live connections so accounting completes.
	for _, c := range s.conns {
		if c.alive {
			s.bal.ConnEnd(end, c.tuple)
			c.alive = false
		}
	}
	s.res.Balancer = s.bal.Name()
	s.res.BrokenConns += s.bal.ExtraBroken()
	s.res.SimulatedTime = s.cfg.Duration
	s.res.SLBLoadFraction = s.slbLoad()
	return s.res
}

// slbLoad asks the balancer for its detour share if it exposes one.
func (s *Sim) slbLoad() float64 {
	type loadReporter interface{ SLBLoadFraction() float64 }
	if lr, ok := s.bal.(loadReporter); ok {
		return lr.SLBLoadFraction()
	}
	return 0
}

// arrivalEvent is the self-perpetuating Poisson arrival timer. The next
// arrival is scheduled after the new connection's own end/probe timers, so
// scheduler sequence numbers — and thus same-instant tie-breaks — match
// the retired event heap exactly.
func (s *Sim) arrivalEvent(now simtime.Time) {
	s.arrive(now)
	s.rt.At(now.Add(s.expInterval(s.cfg.ArrivalRate)), s.arrivalEvent)
}

// updateEvent is the self-perpetuating rolling-reboot update timer.
func (s *Sim) updateEvent(now simtime.Time) {
	s.update(now)
	s.rt.At(now.Add(s.expInterval(s.cfg.UpdatesPerMin/60)), s.updateEvent)
}

// arrive creates a new connection and sends its SYN.
func (s *Sim) arrive(now simtime.Time) {
	vp := s.pickVIP()
	n := s.res.Conns
	src := netip.AddrFrom4([4]byte{1, byte(n >> 16), byte(n >> 8), byte(n)})
	if s.cfg.IPv6 {
		src = netip.AddrFrom16([16]byte{0x20, 0x01, 12: byte(n >> 24), 13: byte(n >> 16), 14: byte(n >> 8), 15: byte(n)})
	}
	tuple := netproto.FiveTuple{
		Src:     src,
		Dst:     vp.vip.Addr,
		SrcPort: uint16(1024 + n%60000),
		DstPort: vp.vip.Port,
		Proto:   netproto.ProtoTCP,
	}
	c := &conn{
		tuple: tuple,
		vip:   vp.vip,
		endAt: now.Add(workload.SampleFlowDuration(s.rng, s.cfg.FlowClass)),
		alive: true,
	}
	s.conns[tuple] = c
	s.res.Conns++
	dip, ok := s.bal.Packet(now, tuple, true)
	s.res.Packets++
	if ok {
		c.firstDIP = dip
	}
	s.rt.At(c.endAt, func(at simtime.Time) { s.end(at, c) })
	s.rt.At(now.Add(s.cfg.ProbeInterval), func(at simtime.Time) { s.probe(at, c) })
}

// probe sends a follow-up packet of a pending connection and checks PCC.
func (s *Sim) probe(now simtime.Time, c *conn) {
	if !c.alive || now.After(c.endAt) {
		return
	}
	c.probes++
	dip, ok := s.bal.Packet(now, c.tuple, false)
	s.res.Packets++
	if ok && c.firstDIP.IsValid() && dip != c.firstDIP && !c.broken {
		c.broken = true
		s.res.BrokenConns++
	}
	if !s.bal.Pinned(c.tuple) && c.probes < s.cfg.MaxProbes {
		s.rt.At(now.Add(s.cfg.ProbeInterval), func(at simtime.Time) { s.probe(at, c) })
	}
}

// end terminates a connection.
func (s *Sim) end(now simtime.Time, c *conn) {
	if !c.alive {
		return
	}
	c.alive = false
	s.bal.ConnEnd(now, c.tuple)
	delete(s.conns, c.tuple)
}

// update applies one rolling-reboot step to a random VIP: re-add a DIP
// whose downtime elapsed, else remove a random live DIP with a sampled
// downtime (§3.1's dominant pattern).
func (s *Sim) update(now simtime.Time) {
	vp := s.vips[s.rng.Intn(len(s.vips))]
	// Prefer re-adding a recovered DIP.
	for i, dd := range vp.down {
		if !dd.reAddAt.After(now) {
			vp.live = append(vp.live, dd.dip)
			vp.down = append(vp.down[:i], vp.down[i+1:]...)
			s.applyUpdate(now, vp)
			return
		}
	}
	if len(vp.live) <= 1 {
		return // never empty a pool
	}
	idx := s.rng.Intn(len(vp.live))
	dip := vp.live[idx]
	vp.live = append(vp.live[:idx], vp.live[idx+1:]...)
	cause := workload.SampleCause(s.rng, s.cfg.ClusterType)
	downFor := workload.SampleDowntime(s.rng, cause)
	vp.down = append(vp.down, downDIP{dip: dip, reAddAt: now.Add(downFor)})
	s.applyUpdate(now, vp)
}

func (s *Sim) applyUpdate(now simtime.Time, vp *vipPools) {
	if err := s.bal.Update(now, vp.vip, append([]dataplane.DIP(nil), vp.live...)); err == nil {
		s.res.UpdatesApplied++
	}
}
