package experiments

import (
	"math/rand"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/hybrid"
	"repro/internal/netproto"
	"repro/internal/netwide"
	"repro/internal/simtime"
	"repro/internal/slb"
	"repro/internal/workload"
)

// Netwide regenerates the §5.3 deployment analysis: bin-pack a synthetic
// cluster's VIPs across a Clos fabric's layers, minimizing the bottleneck
// SRAM utilization, and compare against all-at-ToR and an incremental
// deployment.
func Netwide(scale float64, seed int64) (*Report, error) {
	r := &Report{ID: "netwide", Title: "Network-wide VIP assignment (§5.3)"}
	fleet := workload.Fleet(seed)
	rng := rand.New(rand.NewSource(seed + 9))
	// Pick the largest Backend cluster: the hardest packing instance.
	var c *workload.Cluster
	for i := range fleet {
		if fleet[i].Type != workload.Backend {
			continue
		}
		if c == nil || fleet[i].ActiveConnsPerToRP99 > c.ActiveConnsPerToRP99 {
			c = &fleet[i]
		}
	}
	topo := netwide.Uniform(c.ToRs, c.ToRs/4+1, 4, 50<<20, 6.4e12)
	// VIP demands: split the cluster's connections and traffic across its
	// VIPs with a heavy tail.
	vips := make([]netwide.VIPDemand, c.VIPs)
	totalConns := float64(c.ActiveConnsPerToRP99) * float64(c.ToRs)
	weights := make([]float64, c.VIPs)
	sum := 0.0
	for i := range weights {
		weights[i] = rng.ExpFloat64() + 0.05
		sum += weights[i]
	}
	for i := range vips {
		conns := int(totalConns * weights[i] / sum)
		vips[i] = netwide.VIPDemand{
			Name:       c.Name,
			SRAMBytes:  dataplane.LayoutDigestVersion(16, 6).TableBytes(conns),
			TrafficBps: c.PeakBps * weights[i] / sum,
		}
	}
	asg, err := netwide.Assign(topo, vips)
	if err != nil {
		return nil, err
	}
	counts := map[netwide.Layer]int{}
	for _, l := range asg.Layer {
		counts[l]++
	}
	r.Printf("cluster %s: %d ToRs, %d VIPs, %.1fM conns, %.0f Gbps",
		c.Name, c.ToRs, c.VIPs, totalConns/1e6, c.PeakBps/1e9)
	r.Printf("optimized: ToR=%d Agg=%d Core=%d VIPs; bottleneck SRAM %.1f%%, capacity %.1f%%",
		counts[netwide.ToR], counts[netwide.Agg], counts[netwide.Core],
		100*asg.MaxSRAMUtil, 100*asg.MaxCapUtil)
	naive := make([]netwide.Layer, len(vips))
	s, cap_ := netwide.Utilization(topo, vips, naive)
	r.Printf("all-at-ToR:  bottleneck SRAM %.1f%%, capacity %.1f%%", 100*s, 100*cap_)
	partial := topo
	partial.Enabled[netwide.ToR] = topo.Count[netwide.ToR] / 4
	if pasg, err := netwide.Assign(partial, vips); err == nil {
		r.Printf("incremental (1/4 of ToRs enabled): bottleneck SRAM %.1f%%", 100*pasg.MaxSRAMUtil)
	} else {
		r.Printf("incremental (1/4 of ToRs enabled): infeasible (%v)", err)
	}
	return r, nil
}

// Hybrid regenerates the §7 cache analysis: sweep the hardware ConnTable
// size against a fixed connection population and report the share of
// traffic that spills to the software tier.
func Hybrid(scale float64, seed int64) (*Report, error) {
	r := &Report{ID: "hybrid", Title: "ConnTable as a cache with an SLB overflow tier (§7)"}
	connCount := int(8000 * scale)
	if connCount < 2000 {
		connCount = 2000
	}
	r.Printf("%14s %14s %16s %14s", "table entries", "cached conns", "overflow conns", "sw pkt share")
	for _, capEntries := range []int{connCount / 8, connCount / 4, connCount / 2, connCount * 2} {
		b, err := hybrid.New(dataplane.DefaultConfig(capEntries), ctrlplane.DefaultConfig(), slb.DefaultConfig())
		if err != nil {
			return nil, err
		}
		vip := expVIP()
		if err := b.AddVIP(0, vip, expPool(16)); err != nil {
			return nil, err
		}
		now := simtime.Time(0)
		for i := 0; i < connCount; i++ {
			b.Packet(now, &netproto.Packet{Tuple: expTuple(i), TCPFlags: netproto.FlagSYN})
			now = now.Add(simtime.Duration(20 * simtime.Microsecond))
		}
		now = now.Add(simtime.Duration(simtime.Second))
		b.Advance(now)
		// Steady traffic on every connection.
		for round := 0; round < 3; round++ {
			for i := 0; i < connCount; i++ {
				b.Packet(now, &netproto.Packet{Tuple: expTuple(i), TCPFlags: netproto.FlagACK})
			}
			now = now.Add(simtime.Duration(100 * simtime.Millisecond))
		}
		st := b.Stats()
		r.Printf("%14d %14d %16d %13.1f%%",
			capEntries, connCount-int(st.OverflowConns), st.OverflowConns, 100*b.SoftwareShare())
	}
	r.Printf("the cache keeps the hot majority in hardware; overflow connections stay")
	r.Printf("consistent at the SLB tier (see internal/hybrid tests)")
	return r, nil
}
