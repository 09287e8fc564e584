package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simtime"
	"repro/internal/stats"
)

func TestFleetComposition(t *testing.T) {
	fleet := Fleet(1)
	if len(fleet) != 100 {
		t.Fatalf("fleet size = %d, want 100 (paper: ~a hundred clusters)", len(fleet))
	}
	counts := map[ClusterType]int{}
	for _, c := range fleet {
		counts[c.Type]++
		if c.ToRs <= 0 || c.VIPs <= 0 || c.DIPsPerVIP <= 0 {
			t.Fatalf("cluster %s has degenerate shape: %+v", c.Name, c)
		}
		if c.ActiveConnsPerToRP99 < c.ActiveConnsPerToRMedian {
			t.Fatalf("cluster %s: p99 < median", c.Name)
		}
		if c.Type == Backend && !c.IPv6 {
			t.Fatalf("backend %s should be IPv6", c.Name)
		}
	}
	if counts[Backend] < counts[PoP] {
		t.Fatal("backends should dominate the fleet")
	}
}

func TestFleetDeterministic(t *testing.T) {
	a := Fleet(7)
	b := Fleet(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fleet not reproducible at %d", i)
		}
	}
	c := Fleet(8)
	if a[0] == c[0] {
		t.Fatal("different seeds gave identical clusters")
	}
}

// TestFigure6Shape checks active-connection spreads: the most loaded PoPs
// and Backends around 10M+ per ToR, Frontends well under 1M.
func TestFigure6Shape(t *testing.T) {
	fleet := Fleet(2)
	perType := map[ClusterType]*stats.CDF{PoP: {}, Frontend: {}, Backend: {}}
	for _, c := range fleet {
		perType[c.Type].Add(float64(c.ActiveConnsPerToRP99))
	}
	if max := perType[Backend].Max(); max < 8e6 || max > 1.6e7 {
		t.Fatalf("backend max conns = %.2g, want ~15M", max)
	}
	if max := perType[PoP].Max(); max < 6e6 || max > 1.2e7 {
		t.Fatalf("pop max conns = %.2g, want ~11M", max)
	}
	if max := perType[Frontend].Max(); max > 1.5e6 {
		t.Fatalf("frontend max conns = %.2g, want < 1M-ish", max)
	}
}

// TestFigure2Shape reproduces the headline Figure 2 claims on the p99
// minute: roughly 32% of clusters above 10 updates/min and a small tail
// above 50.
func TestFigure2Shape(t *testing.T) {
	fleet := Fleet(3)
	rng := rand.New(rand.NewSource(4))
	var p99s, medians stats.CDF
	const minutes = 4320 // 3 days is enough for stable p99-of-minutes
	for _, c := range fleet {
		series := c.MinuteUpdateSeries(rng, minutes)
		cdf := stats.CDF{}
		for _, v := range series {
			cdf.Add(float64(v))
		}
		p99s.Add(cdf.P99())
		medians.Add(cdf.Median())
	}
	fracAbove10 := p99s.FractionAbove(10)
	if fracAbove10 < 0.15 || fracAbove10 > 0.55 {
		t.Fatalf("clusters with p99 minute > 10 updates = %.2f, want ~0.32", fracAbove10)
	}
	fracAbove50 := p99s.FractionAbove(50)
	if fracAbove50 == 0 || fracAbove50 > 0.15 {
		t.Fatalf("clusters with p99 minute > 50 updates = %.2f, want small but nonzero", fracAbove50)
	}
	// Some clusters see updates in their median minute.
	if medians.Max() < 1 {
		t.Fatal("no cluster has updates in its median minute")
	}
}

func TestMinuteSeriesNonNegative(t *testing.T) {
	c := Fleet(5)[0]
	rng := rand.New(rand.NewSource(6))
	for _, v := range c.MinuteUpdateSeries(rng, 1000) {
		if v < 0 {
			t.Fatal("negative update count")
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Small rate: mean close to lambda.
	sum := 0
	for i := 0; i < 20000; i++ {
		sum += poisson(rng, 3.0)
	}
	if mean := float64(sum) / 20000; math.Abs(mean-3.0) > 0.1 {
		t.Fatalf("poisson(3) mean = %.3f", mean)
	}
	// Large rate path.
	sum = 0
	for i := 0; i < 5000; i++ {
		sum += poisson(rng, 200)
	}
	if mean := float64(sum) / 5000; math.Abs(mean-200) > 2 {
		t.Fatalf("poisson(200) mean = %.2f", mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("nonpositive rate should give 0")
	}
}

// TestFigure3Shape: fleet-wide root causes are dominated by upgrades.
func TestFigure3Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	counter := stats.NewCounter()
	for i := 0; i < 50000; i++ {
		counter.Inc(SampleCause(rng, Backend).String(), 1)
	}
	if f := counter.Fraction("upgrade"); f < 0.79 || f < causeWeights[Upgrade]-0.03 || f > causeWeights[Upgrade]+0.03 {
		t.Fatalf("backend upgrade fraction = %.3f, want ~0.827", f)
	}
	// PoPs never see upgrades.
	for i := 0; i < 1000; i++ {
		if c := SampleCause(rng, PoP); c == Upgrade || c == Testing {
			t.Fatalf("PoP sampled cause %v", c)
		}
	}
}

// TestFigure4Shape: upgrade downtime 3 min median, ~100 min p99.
func TestFigure4Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var cdf stats.CDF
	for i := 0; i < 20000; i++ {
		cdf.Add(SampleDowntime(rng, Upgrade).Minutes())
	}
	if med := cdf.Median(); med < 2 || med > 4.5 {
		t.Fatalf("upgrade downtime median = %.1f min, want ~3", med)
	}
	if p99 := cdf.P99(); p99 < 40 || p99 > 260 {
		t.Fatalf("upgrade downtime p99 = %.0f min, want ~100", p99)
	}
	if SampleDowntime(rng, Provisioning) != 0 {
		t.Fatal("provisioning has no downtime")
	}
	if SampleDowntime(rng, Removing) < simtime.Duration(simtime.Hour) {
		t.Fatal("removed DIPs should not come back")
	}
}

// TestFlowDurations: Hadoop 10 s median, cache 4.5 min median.
func TestFlowDurations(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var hadoop, cache stats.CDF
	for i := 0; i < 20000; i++ {
		hadoop.Add(SampleFlowDuration(rng, Hadoop).Seconds())
		cache.Add(SampleFlowDuration(rng, Cache).Seconds())
	}
	if med := hadoop.Median(); med < 8 || med > 12 {
		t.Fatalf("hadoop median = %.1f s, want ~10", med)
	}
	if med := cache.Median(); med < 220 || med > 330 {
		t.Fatalf("cache median = %.0f s, want ~270", med)
	}
}

// TestFigure8Shape: per-VIP new connection rates reach tens of millions
// per minute in the tail.
func TestFigure8Shape(t *testing.T) {
	fleet := Fleet(11)
	rng := rand.New(rand.NewSource(12))
	var cdf stats.CDF
	for _, c := range fleet {
		for v := 0; v < 50; v++ {
			cdf.Add(c.SampleNewConnsPerVIPMinute(rng))
		}
	}
	if max := cdf.Max(); max < 3e6 {
		t.Fatalf("max new conns/VIP/min = %.2g, want a multi-million tail", max)
	}
	if med := cdf.Median(); med < 500 || med > 1e6 {
		t.Fatalf("median new conns/VIP/min = %.2g", med)
	}
}

func TestStringers(t *testing.T) {
	if PoP.String() != "PoP" || Frontend.String() != "Frontend" || Backend.String() != "Backend" {
		t.Fatal("cluster type names")
	}
	if ClusterType(9).String() == "" {
		t.Fatal("unknown type name empty")
	}
	for c := Upgrade; c <= Removing; c++ {
		if c.String() == "" {
			t.Fatal("cause name empty")
		}
	}
	if Cause(99).String() == "" {
		t.Fatal("unknown cause name empty")
	}
}

func TestCauseWeightsSumToOne(t *testing.T) {
	sum := 0.0
	for c := Upgrade; c <= Removing; c++ {
		sum += causeWeights[c]
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("cause weights sum to %.4f", sum)
	}
}
