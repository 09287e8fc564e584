package telemetry

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot builds a fully deterministic registry snapshot that
// exercises every exposition shape: bare counters and gauges, histograms,
// per-VIP and per-pipe labeled families, and the cuckoo instruments added
// for the flight recorder.
func goldenSnapshot() Snapshot {
	r := NewRegistry()
	r.SetBuildInfo("v0.8.0", "go1.xx")
	r.SetProcessStart(1700000000)
	vsA := r.RegisterVIP(0, VIPKey{Addr: netip.MustParseAddr("10.0.0.1"), Port: 80, Proto: 6})
	vsB := r.RegisterVIP(1, VIPKey{Addr: netip.MustParseAddr("10.0.0.2"), Port: 443, Proto: 17})

	r.Trace(Event{Kind: KindVerdict, Now: 1e9, Pipe: 0, VIP: vsA, Verdict: VerdictForward, WireLen: 64})
	r.Trace(Event{Kind: KindVerdict, Now: 2e9, Pipe: 0, VIP: vsA, Verdict: VerdictForward, WireLen: 1500})
	r.Trace(Event{Kind: KindVerdict, Now: 2e9, Pipe: 1, VIP: vsB, Verdict: VerdictNoBackend, WireLen: 40})
	r.Trace(Event{Kind: KindInsert, Now: 3e9, Pipe: 0, VIP: vsA, Insert: InsertLearned,
		Outcome: InsertOK, ArrivedAt: 1e9})
	r.Trace(Event{Kind: KindUpdateStep, Now: 4e9, UpdateStep: StepDone})
	r.Trace(Event{Kind: KindLearnFlush, Now: 4e9, Pipe: 0, Batch: 3})
	r.Trace(Event{Kind: KindMeterDrop, Now: 5e9, Pipe: 1, VIP: vsB, WireLen: 900})
	r.Trace(Event{Kind: KindCuckoo, Now: 6e9, Pipe: 0, CuckooOp: CuckooInsert, Moves: 3,
		OK: true, Len: 5, Capacity: 100})
	r.Trace(Event{Kind: KindCuckoo, Now: 7e9, Pipe: 0, CuckooOp: CuckooRelocate, Relocations: 2,
		OK: true, Len: 5, Capacity: 100})
	r.Trace(Event{Kind: KindCuckoo, Now: 8e9, Pipe: 0, CuckooOp: CuckooInsert, Moves: 40,
		OK: false, Len: 5, Capacity: 100, Effective: 80})
	r.Trace(Event{Kind: KindDegraded, Now: 8e9, Pipe: 1, Degraded: true, Len: 70, Effective: 80})
	r.Trace(Event{Kind: KindReconcile, Now: 8e9, ReconcileStep: ReconcileRound, Generation: 2})
	r.Trace(Event{Kind: KindReconcile, Now: 8e9, ReconcileStep: ReconcileApply, Op: "update",
		Generation: 2, Duration: 2e6})
	r.Trace(Event{Kind: KindReconcile, Now: 8e9, ReconcileStep: ReconcileRetry, Generation: 2,
		Retries: 1, Err: "table full"})
	r.Trace(Event{Kind: KindReconcile, Now: 9e9, ReconcileStep: ReconcileDrift, Generation: 2})
	r.Trace(Event{Kind: KindHandoff, Now: 9e9, Donor: 0, Receiver: 1, HandoffStep: HandoffBegin,
		Entries: 5, Cursor: 42})
	r.Trace(Event{Kind: KindHandoff, Donor: 0, Receiver: 1, HandoffStep: HandoffChunk, Entries: 4})
	r.Trace(Event{Kind: KindHandoff, Donor: 0, Receiver: 1, HandoffStep: HandoffDelta, Deltas: 2})
	r.Trace(Event{Kind: KindHandoff, Now: 9e9, Donor: -1, Receiver: 1, HandoffStep: HandoffRetry, Entries: 1})
	r.Trace(Event{Kind: KindHandoff, Now: 9e9, Donor: 0, Receiver: 1, HandoffStep: HandoffDone,
		Entries: 6, Deltas: 2, Cursor: 42, Duration: 3e6})
	return r.Snapshot(9e9)
}

// TestWritePrometheusGolden pins the full exposition text. Regenerate with
//
//	go test ./internal/telemetry -run Golden -update
//
// and review the diff: the format is part of the scrape contract.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	path := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden file %s\n--- got ---\n%s", path, got)
	}
	lintExposition(t, got)
}

// TestLintPrometheusLive lints a scrape of a live, churned registry too, so
// the spec checks don't only cover the synthetic golden snapshot.
func TestLintPrometheusLive(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, b.String())
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRE     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// lintExposition checks the text against the exposition-format rules this
// package promises: valid metric and label names, exactly one TYPE line
// per family, families sorted by name with contiguous samples, histogram
// buckets in ascending le order ending at +Inf, and parseable escaping.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{} // family -> type
	var familyOrder []string
	current := "" // family owning the samples being read
	var lastLe float64
	sawInf := false

	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		lineNo := i + 1
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", lineNo, line)
			}
			name, typ := parts[2], parts[3]
			if !metricNameRE.MatchString(name) {
				t.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: invalid metric type %q", lineNo, typ)
			}
			if _, dup := typed[name]; dup {
				t.Errorf("line %d: duplicate TYPE line for family %q", lineNo, name)
			}
			typed[name] = typ
			familyOrder = append(familyOrder, name)
			current = name
			lastLe, sawInf = -1, false
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample line %q", lineNo, line)
		}
		name, labels, value := m[1], m[2], m[3]
		fam := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if typed[name] != "" {
			fam = name // exact family match beats suffix stripping
		}
		if fam != current {
			t.Errorf("line %d: sample %q outside its family block (current %q)",
				lineNo, name, current)
		}
		if typed[fam] == "" {
			t.Errorf("line %d: sample %q has no TYPE line", lineNo, name)
		}
		if typed[fam] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le := lintLabels(t, lineNo, labels)
			if le == "" {
				t.Errorf("line %d: histogram bucket without le label", lineNo)
			} else if le == "+Inf" {
				sawInf = true
			} else {
				var f float64
				if _, err := fmt.Sscanf(le, "%g", &f); err != nil {
					t.Errorf("line %d: bad le value %q", lineNo, le)
				} else if f <= lastLe {
					t.Errorf("line %d: le %q not ascending (prev %g)", lineNo, le, lastLe)
				} else {
					lastLe = f
				}
				if sawInf {
					t.Errorf("line %d: finite bucket after +Inf", lineNo)
				}
			}
		} else {
			lintLabels(t, lineNo, labels)
		}
		if value == "" {
			t.Errorf("line %d: empty sample value", lineNo)
		}
	}

	if !sort.StringsAreSorted(familyOrder) {
		t.Errorf("metric families are not sorted by name: %v", familyOrder)
	}
}

// lintLabels validates a {k="v",...} block and returns the value of the
// le label if present. It checks label names, quoting, and that escaping
// leaves no raw quote, backslash or newline inside a value.
func lintLabels(t *testing.T, lineNo int, block string) (le string) {
	t.Helper()
	if block == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	var lastName string
	for _, pair := range splitLabelPairs(inner) {
		eq := strings.Index(pair, "=")
		if eq < 0 {
			t.Errorf("line %d: label pair %q missing '='", lineNo, pair)
			continue
		}
		name, quoted := pair[:eq], pair[eq+1:]
		if !labelNameRE.MatchString(name) {
			t.Errorf("line %d: invalid label name %q", lineNo, name)
		}
		if name < lastName {
			t.Errorf("line %d: label %q out of order after %q", lineNo, name, lastName)
		}
		lastName = name
		if len(quoted) < 2 || quoted[0] != '"' || quoted[len(quoted)-1] != '"' {
			t.Errorf("line %d: label value %q not quoted", lineNo, quoted)
			continue
		}
		val := quoted[1 : len(quoted)-1]
		for j := 0; j < len(val); j++ {
			switch val[j] {
			case '\\':
				if j+1 >= len(val) || (val[j+1] != '\\' && val[j+1] != '"' && val[j+1] != 'n') {
					t.Errorf("line %d: invalid escape in label value %q", lineNo, val)
				}
				j++
			case '"', '\n':
				t.Errorf("line %d: unescaped %q in label value %q", lineNo, val[j], val)
			}
		}
		if name == "le" {
			le = val
		}
	}
	return le
}

// splitLabelPairs splits k="v",k2="v2" on commas outside quotes.
func splitLabelPairs(s string) []string {
	var pairs []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				pairs = append(pairs, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		pairs = append(pairs, s[start:])
	}
	return pairs
}

// TestEscapeLabelValue covers the spec's three escape rules directly.
func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`back\slash`:   `back\\slash`,
		`qu"ote`:       `qu\"ote`,
		"new\nline":    `new\nline`,
		"\\\"\n":       `\\\"\n`,
		"10.0.0.1:80/": "10.0.0.1:80/",
	}
	for in, want := range cases {
		if got := escapeLabelValue(in); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}
