// Package asic models the switching-ASIC platform SilkRoad compiles to: a
// catalogue of ASIC generations (Table 1 of the paper), a resource
// accountant for the seven hardware resource classes reported in Table 2,
// and a Chip that hosts the primitives the dataplane allocates — exact-match
// tables on SRAM stages, transactional register arrays, meter banks, and a
// learning filter.
//
// The model is structural, not cycle-accurate: a pipeline forwards at line
// rate by construction as long as its tables fit the resource budget, which
// is exactly the claim the paper makes ("adding any new logic into the
// pipeline does not change throughput as long as the logic fits").
package asic

import (
	"fmt"
	"strings"

	"repro/internal/bloom"
	"repro/internal/cuckoo"
	"repro/internal/learnfilter"
	"repro/internal/simtime"
)

// Generation describes one ASIC generation (Table 1).
type Generation struct {
	Name         string
	Year         int
	CapacityTbps float64
	SRAMMB       int // usable match SRAM, excluding packet buffer
}

// Generations is the Table 1 catalogue: SRAM grew ~5x over four years,
// reaching the 50-100 MB that makes switch-resident ConnTables feasible.
var Generations = []Generation{
	{Name: "<1.6 Tbps (Trident II / FlexPipe era)", Year: 2012, CapacityTbps: 1.6, SRAMMB: 15},
	{Name: "3.2 Tbps (Tomahawk / XPliant era)", Year: 2014, CapacityTbps: 3.2, SRAMMB: 45},
	{Name: "6.4+ Tbps (Tofino / Tomahawk II era)", Year: 2016, CapacityTbps: 6.5, SRAMMB: 75},
}

// Resources tallies consumption of each hardware resource class from
// Table 2 of the paper.
type Resources struct {
	MatchCrossbarBits int // match key bits fed into the per-stage crossbars
	SRAMBytes         int
	TCAMBytes         int
	VLIWActions       int // very-long-instruction-word action slots
	HashBits          int // hash-generator output bits consumed
	StatefulALUs      int
	PHVBits           int // packet header vector bits for metadata
}

// Add accumulates o into r.
func (r *Resources) Add(o Resources) {
	r.MatchCrossbarBits += o.MatchCrossbarBits
	r.SRAMBytes += o.SRAMBytes
	r.TCAMBytes += o.TCAMBytes
	r.VLIWActions += o.VLIWActions
	r.HashBits += o.HashBits
	r.StatefulALUs += o.StatefulALUs
	r.PHVBits += o.PHVBits
}

// RelativeTo returns each resource as a fraction of base, the presentation
// used by Table 2 ("additional usage normalized by the baseline
// switch.p4"). Zero base components yield 0.
type RelativeUsage struct {
	MatchCrossbar, SRAM, TCAM, VLIW, HashBits, StatefulALUs, PHV float64
}

// RelativeTo computes r/base componentwise.
func (r Resources) RelativeTo(base Resources) RelativeUsage {
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return RelativeUsage{
		MatchCrossbar: frac(r.MatchCrossbarBits, base.MatchCrossbarBits),
		SRAM:          frac(r.SRAMBytes, base.SRAMBytes),
		TCAM:          frac(r.TCAMBytes, base.TCAMBytes),
		VLIW:          frac(r.VLIWActions, base.VLIWActions),
		HashBits:      frac(r.HashBits, base.HashBits),
		StatefulALUs:  frac(r.StatefulALUs, base.StatefulALUs),
		PHV:           frac(r.PHVBits, base.PHVBits),
	}
}

// String renders the relative usage as a Table 2-style block.
func (u RelativeUsage) String() string {
	var b strings.Builder
	row := func(name string, v float64) {
		fmt.Fprintf(&b, "  %-22s %6.2f%%\n", name, v*100)
	}
	row("Match Crossbar", u.MatchCrossbar)
	row("SRAM", u.SRAM)
	row("TCAM", u.TCAM)
	row("VLIW Actions", u.VLIW)
	row("Hash Bits", u.HashBits)
	row("Stateful ALUs", u.StatefulALUs)
	row("Packet Header Vector", u.PHV)
	return b.String()
}

// BaselineSwitchP4 is the resource consumption of the baseline switch.p4
// (the ~5000-line L2/L3/ACL/QoS program SilkRoad is added to). The paper
// reports only SilkRoad's usage *relative* to this baseline; these absolute
// figures are calibrated from the RMT paper's per-stage budgets so that a
// 1M-entry SilkRoad lands at Table 2's percentages.
var BaselineSwitchP4 = Resources{
	MatchCrossbarBits: 3155,           // L2/L3/ACL match keys across stages
	SRAMBytes:         14 * (1 << 20), // exact-match tables (MACs, hosts, ECMP)
	TCAMBytes:         6 * (1 << 20),  // LPM + ACL
	VLIWActions:       21,
	HashBits:          515,
	StatefulALUs:      11, // counters, meters in the baseline
	PHVBits:           612,
}

// Config describes the chip hosting a SilkRoad instance.
type Config struct {
	Name          string
	Stages        int              // physical match stages
	SRAMBytes     int              // total match SRAM budget
	CapacityTbps  float64          // forwarding capacity
	PipelineDelay simtime.Duration // port-to-port latency
}

// Tofino64 returns a 6.4 Tbps-class chip configuration (the prototype
// target: Table 1's 2016 generation).
func Tofino64() Config {
	return Config{
		Name:          "programmable-6.4T",
		Stages:        12,
		SRAMBytes:     75 * (1 << 20),
		CapacityTbps:  6.4,
		PipelineDelay: simtime.Duration(400), // ~400ns port-to-port
	}
}

// PerPipe returns the share of this chip's budget owned by one of n
// parallel forwarding pipelines. Multi-pipeline ASICs (Tofino-class chips
// forward through 2-4 independent pipes) split the match SRAM and the
// aggregate forwarding capacity evenly across pipes, while per-pipe
// physical properties — stage count and port-to-port latency — are
// unchanged.
func (c Config) PerPipe(n int) Config {
	if n <= 1 {
		return c
	}
	c.Name = fmt.Sprintf("%s (1 of %d pipes)", c.Name, n)
	c.SRAMBytes /= n
	c.CapacityTbps /= float64(n)
	return c
}

// Chip hosts allocated primitives and accounts their resources.
type Chip struct {
	cfg    Config
	used   Resources
	tables map[string]*cuckoo.Table
	blooms map[string]*bloom.Filter
	learn  *learnfilter.Filter
}

// NewChip creates an empty chip.
func NewChip(cfg Config) *Chip {
	if cfg.Stages <= 0 || cfg.SRAMBytes <= 0 {
		panic("asic: chip needs positive stages and SRAM")
	}
	return &Chip{
		cfg:    cfg,
		tables: make(map[string]*cuckoo.Table),
		blooms: make(map[string]*bloom.Filter),
	}
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Used returns the resources allocated so far.
func (c *Chip) Used() Resources { return c.used }

// SRAMAvailable returns the remaining SRAM budget.
func (c *Chip) SRAMAvailable() int { return c.cfg.SRAMBytes - c.used.SRAMBytes }

// ErrOutOfSRAM is returned when an allocation exceeds the chip's budget.
type ErrOutOfSRAM struct {
	Want, Have int
}

func (e ErrOutOfSRAM) Error() string {
	return fmt.Sprintf("asic: allocation needs %d B SRAM, %d B available", e.Want, e.Have)
}

// AllocExactMatch places a multi-stage cuckoo exact-match table on the chip
// and accounts its resources: SRAM for the packed words, crossbar bits for
// the match key in every stage the table spans, hash bits for the per-stage
// index+digest generation, and one VLIW action for the table's action.
func (c *Chip) AllocExactMatch(name string, tcfg cuckoo.Config, keyBits int) (*cuckoo.Table, error) {
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("asic: table %q already allocated", name)
	}
	if tcfg.Stages > c.cfg.Stages {
		return nil, fmt.Errorf("asic: table %q wants %d stages, chip has %d", name, tcfg.Stages, c.cfg.Stages)
	}
	// Budget check precedes construction: a rejected allocation must not
	// have built (or worse, leaked) a full-size table.
	need := tcfg.SRAMBytes()
	if need > c.SRAMAvailable() {
		return nil, ErrOutOfSRAM{Want: need, Have: c.SRAMAvailable()}
	}
	t := cuckoo.New(tcfg)
	indexBits := bitsFor(tcfg.BucketsPerStage)
	c.used.Add(Resources{
		SRAMBytes:         need,
		MatchCrossbarBits: keyBits * tcfg.Stages,
		HashBits:          (indexBits + tcfg.DigestBits) * tcfg.Stages,
		VLIWActions:       4,
		PHVBits:           tcfg.ValueBits,
	})
	c.tables[name] = t
	return t, nil
}

// AllocBloom places a bloom filter across k register arrays: one stateful
// ALU and one hash generator per hash function, in line with how the
// prototype consumed 44% extra stateful ALUs for the TransitTable.
func (c *Chip) AllocBloom(name string, sizeBytes, k int, seed uint64) (*bloom.Filter, error) {
	if _, dup := c.blooms[name]; dup {
		return nil, fmt.Errorf("asic: bloom %q already allocated", name)
	}
	if sizeBytes > c.SRAMAvailable() {
		return nil, ErrOutOfSRAM{Want: sizeBytes, Have: c.SRAMAvailable()}
	}
	f := bloom.New(sizeBytes, k, seed)
	c.used.Add(Resources{
		SRAMBytes:    sizeBytes,
		StatefulALUs: k,
		HashBits:     k * bitsFor(sizeBytes*8),
	})
	c.blooms[name] = f
	return f, nil
}

// AllocLearnFilter places the (single) learning filter.
func (c *Chip) AllocLearnFilter(capacity int, timeout simtime.Duration) (*learnfilter.Filter, error) {
	if c.learn != nil {
		return nil, fmt.Errorf("asic: learning filter already allocated")
	}
	// The filter buffers capacity events of ~16B each.
	if need := capacity * 16; need > c.SRAMAvailable() {
		return nil, ErrOutOfSRAM{Want: need, Have: c.SRAMAvailable()}
	}
	c.learn = learnfilter.New(capacity, timeout)
	c.used.Add(Resources{SRAMBytes: capacity * 16, StatefulALUs: 1})
	return c.learn, nil
}

// bitsFor returns ceil(log2(n)): the number of address or hash bits needed
// to distinguish n values. Degenerate sizes (n <= 1) need no bits at all —
// a single bucket is addressed by the empty string, not by one bit.
func bitsFor(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}
