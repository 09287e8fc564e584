package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAlertTimelineGolden pins the phase-A alert transition timeline —
// the exact virtual times, state edges and journal cursors the seeded
// brownout produces — to a golden file. Any change to fault timing,
// telemetry accounting, SLI derivation or the alert state machine shows
// up as a byte-level diff here.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestAlertTimelineGolden -update
func TestAlertTimelineGolden(t *testing.T) {
	rep, err := RunSLOSoak(testScale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	got := sloTimelineString(rep)
	if !strings.Contains(got, "-> firing") || !strings.Contains(got, "-> resolved") {
		t.Fatalf("timeline lacks a full fire/resolve cycle:\n%s", got)
	}
	path := filepath.Join("testdata", "slo_timeline.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("alert timeline diverged from golden file:\n%s", firstDiff(string(want), got))
	}
}

// sloTimelineString renders the phase-A alert timeline, one transition
// per line — the golden-file format.
func sloTimelineString(rep *SLOSoakReport) string {
	var b strings.Builder
	for _, tr := range rep.Timeline {
		fmt.Fprintf(&b, "t=%-6dms %-18s %-10s -> %-10s cursor=%d\n",
			tr.AtMS, tr.Rule, tr.From, tr.To, tr.Cursor)
	}
	return b.String()
}
