// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function from a Scale (run-time
// budget knob) and a seed to a Report: a printable block plus the
// structured series the tests assert the paper's shape claims against.
//
// Scale semantics: Scale=1 runs the reduced-scale defaults documented in
// EXPERIMENTS.md (minutes of virtual time, thousands of connections per
// second). Larger scales lengthen simulations proportionally; the shapes
// are stable across scales because every rate is normalized.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string // "table1", "fig16", ...
	Title string
	lines []string

	// ArtifactName and Artifact optionally carry a machine-readable payload
	// (e.g. JSON) that silkroad-bench writes to a file of that name next to
	// the printed report.
	ArtifactName string
	Artifact     []byte

	// MetricsName and Metrics optionally carry a telemetry snapshot (JSON)
	// captured during the run; populated only when CollectTelemetry is set
	// (silkroad-bench --metrics) and written next to the main artifact.
	MetricsName string
	Metrics     []byte
}

// Printf appends a formatted row.
func (r *Report) Printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// CollectTelemetry makes experiments that support it attach a
// telemetry.Registry to the system under test and export the snapshot as a
// Metrics artifact. Off by default so benchmark numbers measure the
// untraced hot path; silkroad-bench --metrics turns it on before running.
var CollectTelemetry bool

// Runner is the registry entry for one experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(scale float64, seed int64) (*Report, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"table1", "SRAM and switching capacity by ASIC generation", func(s float64, seed int64) (*Report, error) { return Table1(), nil }},
		{"table2", "Additional H/W resources for SilkRoad @1M connections", func(s float64, seed int64) (*Report, error) { return Table2() }},
		{"fig2", "DIP pool update frequency across clusters", func(s float64, seed int64) (*Report, error) { return Fig2(s, seed), nil }},
		{"fig3", "Root causes of DIP additions/removals", func(s float64, seed int64) (*Report, error) { return Fig3(s, seed), nil }},
		{"fig4", "DIP downtime durations by root cause", func(s float64, seed int64) (*Report, error) { return Fig4(s, seed), nil }},
		{"fig5", "SLB load vs PCC violations dilemma (ConnTable in SLBs)", func(s float64, seed int64) (*Report, error) { return Fig5(s, seed) }},
		{"fig6", "Active connections per ToR switch", func(s float64, seed int64) (*Report, error) { return Fig6(seed), nil }},
		{"fig8", "New connections per VIP per minute", func(s float64, seed int64) (*Report, error) { return Fig8(s, seed), nil }},
		{"fig12", "SilkRoad SRAM usage across clusters", func(s float64, seed int64) (*Report, error) { return Fig12(seed), nil }},
		{"fig13", "SLBs replaced by one SilkRoad across clusters", func(s float64, seed int64) (*Report, error) { return Fig13(seed), nil }},
		{"fig14", "ConnTable memory saving from digests and versions", func(s float64, seed int64) (*Report, error) { return Fig14(seed), nil }},
		{"fig15", "DIP pool versions needed with and without reuse", func(s float64, seed int64) (*Report, error) { return Fig15(s, seed) }},
		{"fig16", "PCC violations vs DIP pool update frequency", func(s float64, seed int64) (*Report, error) { return Fig16(s, seed) }},
		{"fig17", "PCC violations vs new-connection arrival rate", func(s float64, seed int64) (*Report, error) { return Fig17(s, seed) }},
		{"fig18", "PCC violations vs TransitTable size and learn timeout", func(s float64, seed int64) (*Report, error) { return Fig18(s, seed) }},
		{"sec52", "Prototype microbenchmarks: meters, insertion rate, digest FPs, cost", func(s float64, seed int64) (*Report, error) { return Sec52(s, seed) }},
		{"netwide", "Network-wide VIP-to-layer assignment (§5.3)", func(s float64, seed int64) (*Report, error) { return Netwide(s, seed) }},
		{"hybrid", "ConnTable-as-cache with SLB overflow tier (§7)", func(s float64, seed int64) (*Report, error) { return Hybrid(s, seed) }},
		{"pipes", "Multi-pipe aggregate throughput, 1 vs 4 pipes (BENCH_pipes.json)", func(s float64, seed int64) (*Report, error) { return PipesBench(s, seed) }},
		{"chaos", "Chaos soak: fault injection under churn, degradation invariants (CHAOS_soak.json)", func(s float64, seed int64) (*Report, error) { return Chaos(s, seed) }},
		{"reconcile", "Reconcile soak: spec churn, rolling fleet updates, rollback (RECONCILE_soak.json)", func(s float64, seed int64) (*Report, error) { return Reconcile(s, seed) }},
		{"upgrade", "Rolling-upgrade soak: warm handoff, zero dropped flows (UPGRADE_soak.json)", func(s float64, seed int64) (*Report, error) { return Upgrade(s, seed) }},
		{"slo", "SLO soak: burn-rate alerting, occupancy forecasting, fleet rollout gate (SLO_soak.json)", func(s float64, seed int64) (*Report, error) { return SLO(s, seed) }},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment ids.
func IDs() []string {
	var out []string
	for _, r := range All() {
		out = append(out, r.ID)
	}
	sort.Strings(out)
	return out
}
