// Package workload synthesizes the production traces the paper's
// evaluation consumes. The original data — about a hundred clusters of a
// large web service provider — is proprietary, so this package regenerates
// traces from the *published* marginal distributions, which is exactly the
// interface the evaluation reads them through:
//
//	Figure 2: DIP pool updates per minute (median & p99 minute in a month)
//	Figure 3: root causes of DIP additions/removals
//	Figure 4: DIP downtime durations by root cause
//	Figure 6: active connections per ToR switch (median & p99)
//	Figure 8: new connections per VIP per minute
//	§3.2/6: flow durations (Hadoop 10 s median, cache 4.5 min median [39])
//
// All sampling is driven by an explicit *rand.Rand so every experiment is
// reproducible from its seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/simtime"
)

// ClusterType is the paper's three-way cluster taxonomy.
type ClusterType int

// Cluster types.
const (
	PoP ClusterType = iota
	Frontend
	Backend
)

// String names the cluster type.
func (t ClusterType) String() string {
	switch t {
	case PoP:
		return "PoP"
	case Frontend:
		return "Frontend"
	case Backend:
		return "Backend"
	default:
		return fmt.Sprintf("ClusterType(%d)", int(t))
	}
}

// TrafficClass selects the flow-duration distribution ([39]'s workloads).
type TrafficClass int

// Traffic classes.
const (
	Hadoop TrafficClass = iota // median flow 10 s
	Cache                      // median flow 4.5 min
)

// Cluster is one synthesized cluster with the aggregates the experiments
// need. Per-ToR quantities are what a SilkRoad deployed at ToRs would see.
type Cluster struct {
	Name string
	Type ClusterType
	ToRs int
	IPv6 bool // Backends mostly IPv6; PoPs/Frontends mostly IPv4 (§6.1)

	VIPs       int
	DIPsPerVIP int

	// Active connections per ToR switch: the p99-minute figure is what
	// ConnTable must be provisioned for (Figure 6).
	ActiveConnsPerToRMedian int
	ActiveConnsPerToRP99    int

	// New connections per VIP per minute, median across VIPs (Figure 8).
	NewConnsPerVIPMinute float64

	// TotalConns is the cluster-wide peak of simultaneous connections
	// (what Figure 13's capacity planning divides by a balancer's
	// connection capacity). Volume-centric Backends keep this low via
	// persistent connections even when their traffic is enormous.
	TotalConns int

	// DIP pool update process: a per-minute base rate with log-normal
	// burst mixing reproduces Figure 2's heavy tail.
	UpdateRatePerMin float64
	UpdateBurstSigma float64

	// Peak cluster load for the Figure 13 capacity comparison.
	PeakBps float64
	PeakPPS float64
}

// lognormal draws exp(N(ln(median), sigma)).
func lognormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// clampF bounds v to [lo, hi].
func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Fleet synthesizes the study's ~100 clusters: a mix of PoPs, Frontends
// and Backends whose aggregate distributions match Figures 2, 6, 8 and the
// capacity spreads behind Figures 12-13.
func Fleet(seed int64) []Cluster {
	rng := rand.New(rand.NewSource(seed))
	var out []Cluster
	add := func(n int, t ClusterType, f func(i int, rng *rand.Rand) Cluster) {
		for i := 0; i < n; i++ {
			out = append(out, f(i, rng))
		}
	}
	// pps derives packets/s from bits/s with a sampled mean packet size.
	pps := func(rng *rand.Rand, bps float64) float64 {
		pkt := clampF(lognormal(rng, 700, 0.4), 200, 1400) // bytes
		return bps / 8 / pkt
	}
	// 24 PoPs: user-facing, many short connections, IPv4, shared DIPs
	// (one DIP change fans out across VIPs -> bursty updates).
	add(24, PoP, func(i int, rng *rand.Rand) Cluster {
		conns := clampF(lognormal(rng, 3.6e6, 0.55), 4e5, 1.1e7)
		bps := clampF(lognormal(rng, 25e9, 0.8), 3e9, 4e11)
		return Cluster{
			Name: fmt.Sprintf("pop%02d", i), Type: PoP, IPv6: false,
			ToRs: 8 + rng.Intn(24),
			VIPs: 100 + rng.Intn(120), DIPsPerVIP: 20 + rng.Intn(60),
			ActiveConnsPerToRMedian: int(conns * 0.6),
			ActiveConnsPerToRP99:    int(conns),
			NewConnsPerVIPMinute:    clampF(lognormal(rng, 18700, 0.9), 500, 5e7),
			TotalConns:              int(clampF(lognormal(rng, 5e6, 0.8), 5e5, 5e7)),
			UpdateRatePerMin:        clampF(lognormal(rng, 0.45, 1.1), 0.02, 12),
			UpdateBurstSigma:        1.6, // shared-DIP fan-out bursts
			PeakBps:                 bps,
			PeakPPS:                 pps(rng, bps),
		}
	})
	// 26 Frontends: few persistent high-volume connections from PoPs.
	add(26, Frontend, func(i int, rng *rand.Rand) Cluster {
		conns := clampF(lognormal(rng, 2.5e5, 0.6), 3e4, 8e5)
		bps := clampF(lognormal(rng, 110e9, 0.6), 10e9, 6e11)
		return Cluster{
			Name: fmt.Sprintf("fe%02d", i), Type: Frontend, IPv6: false,
			ToRs: 16 + rng.Intn(48),
			VIPs: 40 + rng.Intn(80), DIPsPerVIP: 30 + rng.Intn(80),
			ActiveConnsPerToRMedian: int(conns * 0.6),
			ActiveConnsPerToRP99:    int(conns),
			NewConnsPerVIPMinute:    clampF(lognormal(rng, 900, 0.8), 50, 2e5),
			TotalConns:              int(clampF(lognormal(rng, 1e6, 0.7), 1e5, 8e6)),
			UpdateRatePerMin:        clampF(lognormal(rng, 0.35, 1.0), 0.02, 10),
			UpdateBurstSigma:        1.5,
			PeakBps:                 bps,
			PeakPPS:                 pps(rng, bps),
		}
	})
	// 50 Backends: service-to-service, IPv6, volume-centric persistent
	// connections (few conns, enormous traffic in the tail), continuous
	// service evolution -> frequent updates.
	add(50, Backend, func(i int, rng *rand.Rand) Cluster {
		conns := clampF(lognormal(rng, 4e6, 0.75), 2e5, 1.5e7)
		bps := clampF(lognormal(rng, 30e9, 1.5), 3e9, 2.8e12)
		return Cluster{
			Name: fmt.Sprintf("be%02d", i), Type: Backend, IPv6: true,
			ToRs: 24 + rng.Intn(72),
			VIPs: 60 + rng.Intn(200), DIPsPerVIP: 40 + rng.Intn(260),
			ActiveConnsPerToRMedian: int(conns * 0.55),
			ActiveConnsPerToRP99:    int(conns),
			NewConnsPerVIPMinute:    clampF(lognormal(rng, 9000, 1.3), 100, 5.2e7),
			TotalConns:              int(clampF(lognormal(rng, 3e6, 1.0), 2e5, 3e7)),
			UpdateRatePerMin:        clampF(lognormal(rng, 1.7, 1.0), 0.05, 16),
			UpdateBurstSigma:        1.4,
			PeakBps:                 bps,
			PeakPPS:                 pps(rng, bps),
		}
	})
	// The study's peak volume-centric Backend: storage-style persistent
	// connections moving ~2.8 Tbps through few connections. This is the
	// cluster behind the paper's "one SilkRoad replaces 277 SLBs".
	giant := &out[len(out)-1]
	giant.PeakBps = 2.8e12
	giant.PeakPPS = giant.PeakBps / 8 / 1250
	giant.TotalConns = 8_000_000
	return out
}

// MinuteUpdateSeries simulates the per-minute DIP pool update counts for a
// month (or any number of minutes): a Poisson process whose rate is
// log-normally modulated per minute (operational burstiness: one service
// upgrade touches many DIPs back-to-back).
func (c *Cluster) MinuteUpdateSeries(rng *rand.Rand, minutes int) []int {
	out := make([]int, minutes)
	for m := range out {
		rate := c.UpdateRatePerMin * math.Exp(rng.NormFloat64()*c.UpdateBurstSigma-c.UpdateBurstSigma*c.UpdateBurstSigma/2)
		out[m] = poisson(rng, rate)
	}
	return out
}

// poisson draws a Poisson variate (Knuth for small rates, normal
// approximation for large).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Cause is a root cause of a DIP addition/removal (Figure 3).
type Cause int

// Root causes, in Figure 3's vocabulary.
const (
	Upgrade Cause = iota
	Testing
	Failure
	Preempting
	Provisioning
	Removing
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case Upgrade:
		return "upgrade"
	case Testing:
		return "testing"
	case Failure:
		return "failure"
	case Preempting:
		return "preempting"
	case Provisioning:
		return "provisioning"
	case Removing:
		return "removing"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// causeWeights is Figure 3's fleet-wide distribution: 82.7% of DIP
// additions/removals come from Backend service upgrades; everything else
// is small because it touches a handful of DIPs at a time.
var causeWeights = map[Cause]float64{
	Upgrade:      0.827,
	Testing:      0.052,
	Failure:      0.035,
	Preempting:   0.031,
	Provisioning: 0.029,
	Removing:     0.026,
}

// SampleCause draws a root cause for an update in a cluster of type t.
// Upgrades and testing are Backend phenomena (§3.1); other cluster types
// only see failure/preempting/provisioning/removing.
func SampleCause(rng *rand.Rand, t ClusterType) Cause {
	if t == Backend {
		r := rng.Float64()
		acc := 0.0
		for _, c := range []Cause{Upgrade, Testing, Failure, Preempting, Provisioning, Removing} {
			acc += causeWeights[c]
			if r <= acc {
				return c
			}
		}
		return Removing
	}
	switch rng.Intn(4) {
	case 0:
		return Failure
	case 1:
		return Preempting
	case 2:
		return Provisioning
	default:
		return Removing
	}
}

// SampleDowntime draws the DIP downtime (reboot-to-alive) for a removal
// with the given cause: 3 minutes median, 100 minutes at p99 for upgrades
// (Figure 4); failures/preemptions recover slower, provisioning has no
// downtime (the DIP is new).
func SampleDowntime(rng *rand.Rand, c Cause) simtime.Duration {
	var median, sigma float64 // seconds
	switch c {
	case Upgrade, Testing:
		median, sigma = 180, 1.5 // p99 = 180*exp(2.326*1.5) ~ 100 min
	case Failure:
		median, sigma = 600, 1.3
	case Preempting:
		median, sigma = 400, 1.2
	case Provisioning:
		return 0
	default: // Removing: the DIP never comes back
		return simtime.Duration(math.MaxInt64 / 4)
	}
	s := clampF(lognormal(rng, median, sigma), 5, 86400)
	return simtime.Duration(s * float64(simtime.Second))
}

// SampleFlowDuration draws a flow duration for the given traffic class:
// Hadoop flows have a 10 s median, cache flows 4.5 min ([39], §3.2).
func SampleFlowDuration(rng *rand.Rand, tc TrafficClass) simtime.Duration {
	var median float64 // seconds
	switch tc {
	case Hadoop:
		median = 10
	case Cache:
		median = 270
	default:
		median = 10
	}
	s := clampF(lognormal(rng, median, 1.0), 0.05, 7200)
	return simtime.Duration(s * float64(simtime.Second))
}

// SampleNewConnsPerVIPMinute draws one VIP's new-connection rate within a
// cluster (the Figure 8 spread across VIPs: a heavy tail reaching tens of
// millions per minute).
func (c *Cluster) SampleNewConnsPerVIPMinute(rng *rand.Rand) float64 {
	return clampF(lognormal(rng, c.NewConnsPerVIPMinute, 1.6), 10, 5.2e7)
}
