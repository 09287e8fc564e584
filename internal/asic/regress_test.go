package asic

// Regression tests for resource-accounting fixes: bitsFor's degenerate
// sizes and budget checks running before any primitive is constructed.

import (
	"errors"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/simtime"
)

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, // degenerate: one bucket needs no address bits
		{2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bitsFor(c.n); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestSingleBucketTableHashBits asserts a degenerate one-bucket-per-stage
// table consumes hash bits only for its digest, not a phantom index bit.
func TestSingleBucketTableHashBits(t *testing.T) {
	chip := NewChip(Config{Name: "t", Stages: 4, SRAMBytes: 1 << 20, CapacityTbps: 1})
	tcfg := cuckoo.Config{
		Stages: 2, BucketsPerStage: 1, Ways: 4,
		DigestBits: 16, ValueBits: 6, OverheadBits: 6, Seed: 1,
	}
	if _, err := chip.AllocExactMatch("tiny", tcfg, 13*8); err != nil {
		t.Fatal(err)
	}
	// indexBits = bitsFor(1) = 0, so hash bits = digest only, per stage.
	if want := 16 * 2; chip.Used().HashBits != want {
		t.Errorf("HashBits = %d, want %d", chip.Used().HashBits, want)
	}
}

// TestBudgetCheckedBeforeConstruction asserts a rejected allocation leaves
// the chip untouched: no resources accounted, the name still free, and a
// smaller allocation under the same name succeeding afterwards.
func TestBudgetCheckedBeforeConstruction(t *testing.T) {
	chip := NewChip(Config{Name: "t", Stages: 12, SRAMBytes: 8 * 1024, CapacityTbps: 1})

	big := cuckoo.DefaultConfig(1_000_000)
	if _, err := chip.AllocExactMatch("conn", big, 13*8); !errors.As(err, &ErrOutOfSRAM{}) {
		t.Fatalf("oversized exact-match: err = %v, want ErrOutOfSRAM", err)
	}
	if chip.Used() != (Resources{}) {
		t.Fatalf("rejected alloc accounted resources: %+v", chip.Used())
	}
	small := cuckoo.DefaultConfig(256)
	if _, err := chip.AllocExactMatch("conn", small, 13*8); err != nil {
		t.Fatalf("name should still be free after rejection: %v", err)
	}

	if _, err := chip.AllocBloom("bloom", 1<<20, 4, 1); !errors.As(err, &ErrOutOfSRAM{}) {
		t.Fatalf("oversized bloom: err = %v, want ErrOutOfSRAM", err)
	}
	if _, err := chip.AllocLearnFilter(1<<20, simtime.Duration(simtime.Millisecond)); !errors.As(err, &ErrOutOfSRAM{}) {
		t.Fatalf("oversized learn filter: err = %v, want ErrOutOfSRAM", err)
	}

	// Only the small table's resources should be accounted.
	if got, want := chip.Used().SRAMBytes, small.SRAMBytes(); got != want {
		t.Errorf("SRAMBytes accounted = %d, want %d", got, want)
	}
}

// TestConfigSRAMBytesMatchesTable asserts the pre-construction size
// estimate equals what a built table reports.
func TestConfigSRAMBytesMatchesTable(t *testing.T) {
	for _, n := range []int{16, 1000, 50000} {
		cfg := cuckoo.DefaultConfig(n)
		if got, want := cfg.SRAMBytes(), cuckoo.New(cfg).SRAMBytes(); got != want {
			t.Errorf("n=%d: Config.SRAMBytes = %d, Table.SRAMBytes = %d", n, got, want)
		}
	}
	// Per-stage digest widths change packing; the estimate must track them.
	cfg := cuckoo.DefaultConfig(1000)
	cfg.DigestBitsPerStage = []int{16, 12, 8, 8}
	if got, want := cfg.SRAMBytes(), cuckoo.New(cfg).SRAMBytes(); got != want {
		t.Errorf("per-stage digests: Config.SRAMBytes = %d, Table.SRAMBytes = %d", got, want)
	}
}

func TestPerPipeSplitsBudget(t *testing.T) {
	base := Tofino64()
	p := base.PerPipe(4)
	if p.SRAMBytes != base.SRAMBytes/4 {
		t.Errorf("per-pipe SRAM = %d, want %d", p.SRAMBytes, base.SRAMBytes/4)
	}
	if p.CapacityTbps != base.CapacityTbps/4 {
		t.Errorf("per-pipe capacity = %v, want %v", p.CapacityTbps, base.CapacityTbps/4)
	}
	if p.Stages != base.Stages || p.PipelineDelay != base.PipelineDelay {
		t.Errorf("per-pipe physical properties changed: %+v", p)
	}
	if one := base.PerPipe(1); one != base {
		t.Errorf("PerPipe(1) should be identity, got %+v", one)
	}
}
