// Package stats provides the small statistics toolkit the evaluation
// harness uses: empirical CDFs, percentiles, histograms, and fixed-width
// text rendering of distribution tables matching the figures in the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
// The zero value is an empty distribution ready for Add.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

// Quantile returns the value at quantile p in [0,1] using nearest-rank.
// It panics on an empty CDF.
func (c *CDF) Quantile(p float64) float64 {
	if len(c.samples) == 0 {
		panic("stats: quantile of empty CDF")
	}
	c.sort()
	if p <= 0 {
		return c.samples[0]
	}
	if p >= 1 {
		return c.samples[len(c.samples)-1]
	}
	rank := int(math.Ceil(p*float64(len(c.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.samples[rank]
}

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// P99 returns the 99th percentile.
func (c *CDF) P99() float64 { return c.Quantile(0.99) }

// Mean returns the arithmetic mean, or 0 for an empty CDF.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// Max returns the largest sample, or 0 for an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	return c.samples[len(c.samples)-1]
}

// FractionAbove returns the fraction of samples strictly greater than x.
// This is the "Y% of clusters have more than X" reading used by Figure 2.
func (c *CDF) FractionAbove(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	// First index with sample > x.
	i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] > x })
	return float64(len(c.samples)-i) / float64(len(c.samples))
}

// Table renders the CDF as a fixed set of quantile rows, in the style used
// by the experiment harness.
func (c *CDF) Table(label, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s n=%d\n", label, c.N())
	if c.N() == 0 {
		return b.String()
	}
	for _, q := range []float64{0.05, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0} {
		fmt.Fprintf(&b, "  p%-4.3g %14.4g %s\n", q*100, c.Quantile(q), unit)
	}
	return b.String()
}

// Histogram is a fixed-bucket counting histogram.
type Histogram struct {
	bounds []float64 // ascending upper bounds; final bucket is overflow
	counts []int64
	total  int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. A value v lands in the first bucket with v <= bound, or in the
// overflow bucket.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// NewHistogramFromCounts rebuilds a histogram from externally captured
// bucket counts (e.g. a telemetry snapshot): counts must have
// len(bounds)+1 entries, the last being the overflow bucket. The counts
// are copied.
func NewHistogramFromCounts(bounds []float64, counts []int64) *Histogram {
	h := NewHistogram(bounds)
	if len(counts) != len(h.counts) {
		panic("stats: counts must have len(bounds)+1 entries")
	}
	copy(h.counts, counts)
	for _, c := range counts {
		h.total += c
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
}

// Total returns the number of observed samples.
func (h *Histogram) Total() int64 { return h.total }

// Bucket returns the count of bucket i (len(bounds) = overflow).
func (h *Histogram) Bucket(i int) int64 { return h.counts[i] }

// Counter accumulates a labeled breakdown (e.g. root causes in Figure 3).
type Counter struct {
	counts map[string]int64
	order  []string
	total  int64
}

// NewCounter creates an empty labeled counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int64)}
}

// Inc adds n to the given label.
func (c *Counter) Inc(label string, n int64) {
	if _, ok := c.counts[label]; !ok {
		c.order = append(c.order, label)
	}
	c.counts[label] += n
	c.total += n
}

// Fraction returns label's share of the total (0 if empty).
func (c *Counter) Fraction(label string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[label]) / float64(c.total)
}

// Total returns the sum over all labels.
func (c *Counter) Total() int64 { return c.total }

// Labels returns labels in first-seen order.
func (c *Counter) Labels() []string { return append([]string(nil), c.order...) }

// Count returns the raw count for a label.
func (c *Counter) Count(label string) int64 { return c.counts[label] }
