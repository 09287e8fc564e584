package ecmp

import (
	"fmt"
	"testing"
)

// TestMaglevTableSizeAblation quantifies the SLB-baseline design choice:
// larger Maglev tables get closer to minimal disruption when a member is
// removed (minimal = 1/N of keys).
func TestMaglevTableSizeAblation(t *testing.T) {
	members := names(10)
	minimal := 1.0 / 10
	var prev float64 = 1
	for _, m := range []uint64{251, 2039, SmallM} {
		before := NewMaglev(members, m, 77)
		after := NewMaglev(members[:9], m, 77)
		d := disruption(before, after, 30000, 78)
		if d < minimal-0.02 {
			t.Fatalf("M=%d disruption %.4f below the minimal bound %.4f", m, d, minimal)
		}
		// Larger tables shouldn't be substantially worse than smaller ones.
		if d > prev+0.05 {
			t.Fatalf("M=%d disruption %.4f regressed vs smaller table %.4f", m, d, prev)
		}
		prev = d
	}
	// At the standard size the overshoot above minimal is small.
	if prev > 2.5*minimal {
		t.Fatalf("M=65537 disruption %.4f far from minimal %.4f", prev, minimal)
	}
}

// BenchmarkMaglevDisruptionAblation reports disruption (fraction of keys
// remapped on one member removal) per table size.
func BenchmarkMaglevDisruptionAblation(b *testing.B) {
	members := names(10)
	for _, m := range []uint64{251, 2039, SmallM} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			var d float64
			for i := 0; i < b.N; i++ {
				before := NewMaglev(members, m, uint64(i)+1)
				after := NewMaglev(members[:9], m, uint64(i)+1)
				d = disruption(before, after, 10000, uint64(i)+2)
			}
			b.ReportMetric(d*100, "%remapped")
		})
	}
}
