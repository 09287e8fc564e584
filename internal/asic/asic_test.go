package asic

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/simtime"
)

func TestGenerationsTable1(t *testing.T) {
	if len(Generations) != 3 {
		t.Fatalf("Table 1 has %d rows, want 3", len(Generations))
	}
	// SRAM must grow ~5x from first to last generation (the paper's trend).
	first, last := Generations[0], Generations[len(Generations)-1]
	if ratio := float64(last.SRAMMB) / float64(first.SRAMMB); ratio < 3 {
		t.Fatalf("SRAM growth ratio = %.1f, want >= 3 (paper: ~5x)", ratio)
	}
	if first.Year >= last.Year {
		t.Fatal("generations out of chronological order")
	}
	if last.SRAMMB < 50 || last.SRAMMB > 100 {
		t.Fatalf("latest generation SRAM = %d MB, want 50-100", last.SRAMMB)
	}
}

func TestResourcesAddAndRelative(t *testing.T) {
	var r Resources
	r.Add(Resources{SRAMBytes: 10, HashBits: 5})
	r.Add(Resources{SRAMBytes: 20, StatefulALUs: 2})
	if r.SRAMBytes != 30 || r.HashBits != 5 || r.StatefulALUs != 2 {
		t.Fatalf("Add result: %+v", r)
	}
	base := Resources{SRAMBytes: 60, HashBits: 10, StatefulALUs: 4, MatchCrossbarBits: 1}
	rel := r.RelativeTo(base)
	if rel.SRAM != 0.5 || rel.HashBits != 0.5 || rel.StatefulALUs != 0.5 {
		t.Fatalf("RelativeTo: %+v", rel)
	}
	if rel.TCAM != 0 { // zero-base component
		t.Fatalf("TCAM fraction = %v, want 0", rel.TCAM)
	}
	if !strings.Contains(rel.String(), "SRAM") {
		t.Fatal("String missing SRAM row")
	}
}

func TestChipAllocExactMatch(t *testing.T) {
	c := NewChip(Tofino64())
	tcfg := cuckoo.DefaultConfig(1_000_000)
	tab, err := c.AllocExactMatch("conntable", tcfg, 37*8)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Capacity() < 1_000_000 {
		t.Fatalf("capacity %d", tab.Capacity())
	}
	if c.Used().SRAMBytes != tab.SRAMBytes() {
		t.Fatalf("SRAM accounting mismatch: chip %d, table %d", c.Used().SRAMBytes, tab.SRAMBytes())
	}
	if c.Used().MatchCrossbarBits != 37*8*tcfg.Stages {
		t.Fatalf("crossbar bits = %d", c.Used().MatchCrossbarBits)
	}
	if _, err := c.AllocExactMatch("conntable", tcfg, 8); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestChipSRAMBudget(t *testing.T) {
	cfg := Tofino64()
	cfg.SRAMBytes = 1 << 16 // 64 KB toy chip
	c := NewChip(cfg)
	_, err := c.AllocExactMatch("big", cuckoo.DefaultConfig(10_000_000), 37*8)
	var oom ErrOutOfSRAM
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOutOfSRAM, got %v", err)
	}
	if oom.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestChipStageLimit(t *testing.T) {
	cfg := Tofino64()
	c := NewChip(cfg)
	tcfg := cuckoo.DefaultConfig(1000)
	tcfg.Stages = cfg.Stages + 1
	if _, err := c.AllocExactMatch("wide", tcfg, 8); err == nil {
		t.Fatal("over-staged table accepted")
	}
}

func TestChipBloomAndMeters(t *testing.T) {
	c := NewChip(Tofino64())
	f, err := c.AllocBloom("transittable", 256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.SizeBytes() != 256 {
		t.Fatal("bloom size wrong")
	}
	if c.Used().StatefulALUs != 4 {
		t.Fatalf("bloom ALUs = %d, want 4 (one per hash)", c.Used().StatefulALUs)
	}
	if _, err := c.AllocBloom("transittable", 256, 4, 1); err == nil {
		t.Fatal("duplicate bloom accepted")
	}
}

func TestChipLearnFilter(t *testing.T) {
	c := NewChip(Tofino64())
	lf, err := c.AllocLearnFilter(2048, simtime.Duration(simtime.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if lf.Capacity() != 2048 {
		t.Fatal("filter capacity wrong")
	}
	if _, err := c.AllocLearnFilter(1, 1); err == nil {
		t.Fatal("second learning filter accepted")
	}
}

func TestNewChipPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChip with zero config did not panic")
		}
	}()
	NewChip(Config{})
}

func TestSRAMAvailable(t *testing.T) {
	cfg := Tofino64()
	c := NewChip(cfg)
	if c.SRAMAvailable() != cfg.SRAMBytes {
		t.Fatal("fresh chip should have full budget")
	}
	if _, err := c.AllocBloom("a", 8192, 2, 1); err != nil {
		t.Fatal(err)
	}
	if c.SRAMAvailable() != cfg.SRAMBytes-8192 {
		t.Fatalf("SRAMAvailable = %d", c.SRAMAvailable())
	}
}
