package ecmp

import (
	"fmt"
	"testing"

	"repro/internal/hashing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:20", i+1)
	}
	return out
}

// disruption measures the fraction of probe keys whose selected *member
// name* changes between two tables: the share of connections that break
// when their state is lost.
func disruption(before, after *Maglev, probes int, seed uint64) float64 {
	changed := 0
	for i := 0; i < probes; i++ {
		key := hashing.HashUint64(seed, uint64(i))
		if before.members[before.Select(key)] != after.members[after.Select(key)] {
			changed++
		}
	}
	return float64(changed) / float64(probes)
}

func TestMaglevBalance(t *testing.T) {
	g := NewMaglev(names(7), SmallM, 9)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[g.Select(uint64(i)*2654435761)]++
	}
	for i, c := range counts {
		if c < 7000 || c > 13000 {
			t.Fatalf("maglev member %d got %d of 70000", i, c)
		}
	}
}

func TestMaglevTableFullyPopulated(t *testing.T) {
	g := NewMaglev(names(3), 2039, 10)
	seen := map[int]bool{}
	for _, m := range g.table {
		if m < 0 || m >= 3 {
			t.Fatalf("table slot holds %d", m)
		}
		seen[m] = true
	}
	if len(seen) != 3 {
		t.Fatal("some member owns no slots")
	}
	if uint64(len(g.table)) != 2039 {
		t.Fatal("table size wrong")
	}
}

func TestMaglevNearMinimalDisruption(t *testing.T) {
	members := names(10)
	g1 := NewMaglev(members, SmallM, 11)
	g2 := NewMaglev(members[:9], SmallM, 11) // drop the last member
	d := disruption(g1, g2, 20000, 101)
	// Maglev's disruption on one removal should be close to the minimal
	// 1/10, far below hash mod N's ~0.9. Maglev is near-minimal, not
	// minimal: allow up to 3x the lower bound.
	if d < 0.08 || d > 0.30 {
		t.Fatalf("maglev disruption = %.3f, want in [0.08,0.30]", d)
	}
}

func TestMaglevSetMembers(t *testing.T) {
	g := NewMaglev(names(4), 2039, 12)
	g.SetMembers(names(6))
	if len(g.members) != 6 {
		t.Fatal("SetMembers did not update")
	}
	counts := make([]int, 6)
	for i := 0; i < 6000; i++ {
		counts[g.Select(uint64(i)*7919)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("member %d starved after SetMembers", i)
		}
	}
}

func TestMaglevPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMaglev(nil, SmallM, 1) },
		func() { NewMaglev(names(10), 7, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad NewMaglev did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkMaglevSelect(b *testing.B) {
	g := NewMaglev(names(100), BigM, 23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Select(uint64(i))
	}
}

func BenchmarkMaglevBuild100(b *testing.B) {
	members := names(100)
	for i := 0; i < b.N; i++ {
		NewMaglev(members, SmallM, uint64(i))
	}
}
