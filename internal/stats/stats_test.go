package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// newCDF builds a CDF from the given samples.
func newCDF(samples []float64) *CDF {
	var c CDF
	for _, v := range samples {
		c.Add(v)
	}
	return &c
}

func TestCDFQuantiles(t *testing.T) {
	c := newCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := c.Median(); got != 5 {
		t.Fatalf("Median = %v, want 5", got)
	}
	if got := c.Quantile(0.1); got != 1 {
		t.Fatalf("p10 = %v, want 1", got)
	}
	if got := c.Quantile(1.0); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
}

func TestCDFAddUnsorted(t *testing.T) {
	var c CDF
	for _, v := range []float64{5, 1, 9, 3} {
		c.Add(v)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := c.Max(); got != 9 {
		t.Fatalf("Max = %v, want 9", got)
	}
	if got := c.N(); got != 4 {
		t.Fatalf("N = %d, want 4", got)
	}
}

func TestCDFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty CDF did not panic")
		}
	}()
	(&CDF{}).Quantile(0.5)
}

func TestCDFEmptySafeAccessors(t *testing.T) {
	var c CDF
	if c.Mean() != 0 || c.Max() != 0 || c.FractionAbove(1) != 0 {
		t.Fatal("empty CDF accessors should all return 0")
	}
}

func TestFractionAbove(t *testing.T) {
	c := newCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 1.0}, {1, 0.75}, {2.5, 0.5}, {4, 0}, {5, 0},
	}
	for _, tc := range cases {
		if got := c.FractionAbove(tc.x); got != tc.want {
			t.Errorf("FractionAbove(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFMean(t *testing.T) {
	c := newCDF([]float64{2, 4, 6})
	if got := c.Mean(); got != 4 {
		t.Fatalf("Mean = %v, want 4", got)
	}
}

// Property: Quantile is monotone in p and bounded by [p0, Max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := newCDF(raw)
		prev := c.Quantile(0)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := c.Quantile(p)
			if q < prev || q > c.Max() {
				return false
			}
			prev = q
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: FractionAbove is non-increasing in x.
func TestFractionAboveProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := newCDF(raw)
		sort.Float64s(raw)
		prev := 1.0
		for _, x := range raw {
			fa := c.FractionAbove(x)
			if fa > prev {
				return false
			}
			prev = fa
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	// 0.5 and 1 land in bucket 0 (v <= 1); 5 in bucket 1; 50 in bucket 2; 500 overflow.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.Bucket(i); got != w {
			t.Errorf("Bucket(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram([]float64{10, 1})
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("upgrade", 827)
	c.Inc("failure", 100)
	c.Inc("upgrade", 173)
	if c.Total() != 1100 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Fraction("upgrade"); got != 1000.0/1100.0 {
		t.Fatalf("Fraction(upgrade) = %v", got)
	}
	if got := c.Labels(); len(got) != 2 || got[0] != "upgrade" || got[1] != "failure" {
		t.Fatalf("Labels = %v", got)
	}
	if c.Count("failure") != 100 {
		t.Fatalf("Count(failure) = %d", c.Count("failure"))
	}
	if NewCounter().Fraction("x") != 0 {
		t.Fatal("empty counter Fraction should be 0")
	}
}

func TestCDFTableRenders(t *testing.T) {
	c := newCDF([]float64{1, 2, 3})
	s := c.Table("test metric", "MB")
	if s == "" {
		t.Fatal("empty table")
	}
	if (&CDF{}).Table("empty", "x") == "" {
		t.Fatal("empty CDF table should still render header")
	}
}
