// Package slb implements the software load balancer baseline (Ananta [36] /
// Maglev [20] style): both VIPTable and ConnTable live in server software.
//
// Functionally an SLB is the gold standard for per-connection consistency —
// VIPTable updates are atomic with ConnTable insertions because both are
// memory writes under one lock — but it pays for that in x86 capacity: the
// paper's cost model is 12 Mpps per 8-core server and a 10 Gbps NIC, which
// is what Figure 13 divides cluster load by.
package slb

import (
	"errors"
	"math"

	"repro/internal/dataplane"
	"repro/internal/ecmp"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// CapacityModel is the per-server throughput model used by the paper.
type CapacityModel struct {
	PPS         float64 // packets per second (12M on 8 cores, 52B packets)
	Bps         float64 // NIC line rate in bits per second (10G)
	Connections int     // practical connection-table size per server
	PowerWatts  float64 // Intel Xeon E5-2660 class
	CostUSD     float64
}

// DefaultCapacity returns the §2.2/§6.1 SLB figures.
func DefaultCapacity() CapacityModel {
	return CapacityModel{
		PPS:         12e6,
		Bps:         10e9,
		Connections: 4_000_000,
		PowerWatts:  200,
		CostUSD:     3000,
	}
}

// ServersNeeded returns how many SLB servers a cluster needs for the given
// peak load (packets/s, bits/s, simultaneous connections).
func (c CapacityModel) ServersNeeded(peakPPS, peakBps float64, peakConns int) int {
	n := 1.0
	if c.PPS > 0 {
		n = math.Max(n, math.Ceil(peakPPS/c.PPS))
	}
	if c.Bps > 0 {
		n = math.Max(n, math.Ceil(peakBps/c.Bps))
	}
	if c.Connections > 0 {
		n = math.Max(n, math.Ceil(float64(peakConns)/float64(c.Connections)))
	}
	return int(n)
}

// Config parameterizes a Balancer.
type Config struct {
	MaglevTableSize uint64
	// ProcessingLatency is the software path's added latency (50us-1ms in
	// the paper); recorded in stats for comparisons.
	ProcessingLatency simtime.Duration
	Seed              uint64
}

// DefaultConfig returns a standard SLB configuration.
func DefaultConfig() Config {
	return Config{
		MaglevTableSize:   ecmp.SmallM,
		ProcessingLatency: simtime.Duration(300 * simtime.Microsecond),
		Seed:              0x51b,
	}
}

// Stats counts SLB activity.
type Stats struct {
	Packets      uint64
	ConnHits     uint64
	ConnInstalls uint64
	ConnsEnded   uint64
	Updates      uint64
	LatencySum   simtime.Duration
	PeakConns    int
}

type vipState struct {
	pool   []dataplane.DIP
	maglev *ecmp.Maglev
}

// Balancer is one software load balancer instance.
type Balancer struct {
	cfg   Config
	vips  map[dataplane.VIP]*vipState
	conns map[uint64]dataplane.DIP // keyHash -> assigned DIP
	stats Stats
}

// New creates an empty software load balancer.
func New(cfg Config) *Balancer {
	if cfg.MaglevTableSize == 0 {
		cfg.MaglevTableSize = ecmp.SmallM
	}
	return &Balancer{
		cfg:   cfg,
		vips:  make(map[dataplane.VIP]*vipState),
		conns: make(map[uint64]dataplane.DIP),
	}
}

// Stats returns a copy of the counters.
func (b *Balancer) Stats() Stats { return b.stats }

// Conns returns the live connection count.
func (b *Balancer) Conns() int { return len(b.conns) }

// AddVIP announces a VIP.
func (b *Balancer) AddVIP(vip dataplane.VIP, pool []dataplane.DIP) error {
	if len(pool) == 0 {
		return errors.New("slb: empty pool")
	}
	if _, dup := b.vips[vip]; dup {
		return errors.New("slb: VIP exists")
	}
	b.vips[vip] = &vipState{
		pool:   append([]dataplane.DIP(nil), pool...),
		maglev: ecmp.NewMaglev(poolNames(pool), b.cfg.MaglevTableSize, b.cfg.Seed),
	}
	return nil
}

// RemoveVIP withdraws a VIP and its connections.
func (b *Balancer) RemoveVIP(vip dataplane.VIP) {
	delete(b.vips, vip)
}

// Update atomically replaces vip's pool. Existing connections keep their
// DIP via ConnTable (software atomicity: the lock-and-buffer dance of
// §2.1 collapses to a single map swap here).
func (b *Balancer) Update(vip dataplane.VIP, pool []dataplane.DIP) error {
	vs, ok := b.vips[vip]
	if !ok {
		return errors.New("slb: unknown VIP")
	}
	if len(pool) == 0 {
		return errors.New("slb: empty pool")
	}
	vs.pool = append([]dataplane.DIP(nil), pool...)
	vs.maglev.SetMembers(poolNames(pool))
	b.stats.Updates++
	return nil
}

// Pool returns vip's current pool.
func (b *Balancer) Pool(vip dataplane.VIP) ([]dataplane.DIP, bool) {
	vs, ok := b.vips[vip]
	if !ok {
		return nil, false
	}
	return append([]dataplane.DIP(nil), vs.pool...), true
}

// keyHash derives the ConnTable key.
func (b *Balancer) keyHash(t netproto.FiveTuple) uint64 {
	return netproto.TupleHash(b.cfg.Seed^0x5e1ec7, &t)
}

// Packet processes one packet: ConnTable hit or Maglev selection plus an
// immediate (software, atomic) ConnTable install. Returns the chosen DIP
// and false if the destination is not a VIP.
func (b *Balancer) Packet(now simtime.Time, t netproto.FiveTuple) (dataplane.DIP, bool) {
	b.stats.Packets++
	b.stats.LatencySum += b.cfg.ProcessingLatency
	kh := b.keyHash(t)
	if dip, ok := b.conns[kh]; ok {
		b.stats.ConnHits++
		return dip, true
	}
	vs, ok := b.vips[dataplane.VIPOf(t)]
	if !ok {
		return dataplane.DIP{}, false
	}
	dip := vs.pool[vs.maglev.Select(kh)]
	b.conns[kh] = dip
	b.stats.ConnInstalls++
	if len(b.conns) > b.stats.PeakConns {
		b.stats.PeakConns = len(b.conns)
	}
	return dip, true
}

// PinConnection installs an externally decided connection->DIP binding —
// the hybrid SilkRoad+SLB deployment (§7) pins switch-overflow connections
// to the DIP their packets were already hashed to. It reports whether the
// binding was newly installed (false: already pinned).
func (b *Balancer) PinConnection(t netproto.FiveTuple, dip dataplane.DIP) bool {
	kh := b.keyHash(t)
	if _, dup := b.conns[kh]; dup {
		return false
	}
	b.conns[kh] = dip
	b.stats.ConnInstalls++
	if len(b.conns) > b.stats.PeakConns {
		b.stats.PeakConns = len(b.conns)
	}
	return true
}

// HasConn reports whether the balancer holds state for t.
func (b *Balancer) HasConn(t netproto.FiveTuple) bool {
	_, ok := b.conns[b.keyHash(t)]
	return ok
}

// ConnEnd removes a terminated connection's state.
func (b *Balancer) ConnEnd(t netproto.FiveTuple) {
	kh := b.keyHash(t)
	if _, ok := b.conns[kh]; ok {
		delete(b.conns, kh)
		b.stats.ConnsEnded++
	}
}

func poolNames(pool []dataplane.DIP) []string {
	out := make([]string, len(pool))
	for i, d := range pool {
		out[i] = d.String()
	}
	return out
}
