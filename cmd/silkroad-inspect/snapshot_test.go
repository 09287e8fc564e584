package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/netproto"
)

func snapVIP() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func snapEntry(i int, ver uint32, dip string) handoff.Entry {
	v := snapVIP()
	return handoff.Entry{
		Tuple: netproto.FiveTuple{
			Src: netip.MustParseAddr("1.2.3.4"), SrcPort: uint16(1000 + i),
			Dst: v.Addr, DstPort: v.Port, Proto: v.Proto,
		},
		KeyHash: uint64(i), Digest: uint32(0xbeef0000 + i),
		VIP: v, Version: ver,
		DIP:  netip.MustParseAddrPort(dip),
		Pool: []dataplane.DIP{netip.MustParseAddrPort(dip)},
	}
}

func writeSnap(t *testing.T, name string, s *handoff.Snapshot) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSnapshotPrint(t *testing.T) {
	snap := &handoff.Snapshot{TakenAt: 50_000_000, Cursor: 42, Pipes: 2, Entries: []handoff.Entry{
		snapEntry(0, 1, "10.0.0.1:20"),
		snapEntry(1, 1, "10.0.0.2:20"),
		snapEntry(2, 3, "10.0.0.3:20"),
	}}
	path := writeSnap(t, "a.json", snap)

	var buf bytes.Buffer
	if err := snapshotCmd(&buf, []string{path}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"3 entries, 2 pipe(s), cursor 42, taken 50ms",
		"20.0.0.1:80/tcp: 3 conns",
		"v1   2 conns",
		"v3   1 conns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotDiff(t *testing.T) {
	a := &handoff.Snapshot{Pipes: 1, Entries: []handoff.Entry{
		snapEntry(0, 1, "10.0.0.1:20"),
		snapEntry(1, 1, "10.0.0.2:20"), // divergent DIP in b
		snapEntry(2, 1, "10.0.0.3:20"), // missing from b
	}}
	b := &handoff.Snapshot{Pipes: 1, Entries: []handoff.Entry{
		snapEntry(0, 1, "10.0.0.1:20"),
		snapEntry(1, 2, "10.0.0.9:20"),
		snapEntry(3, 1, "10.0.0.4:20"), // only in b
	}}
	pa, pb := writeSnap(t, "a.json", a), writeSnap(t, "b.json", b)

	var buf bytes.Buffer
	err := snapshotCmd(&buf, []string{pa, pb})
	if err == nil {
		t.Fatal("divergent DIPs should make the diff fail")
	}
	out := buf.String()
	for _, want := range []string{
		"diff: 1 only in a, 1 only in b, 1 divergent",
		"a: v1->10.0.0.2:20  b: v2->10.0.0.9:20",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotDiffIdentical(t *testing.T) {
	s := &handoff.Snapshot{Pipes: 1, Entries: []handoff.Entry{snapEntry(0, 1, "10.0.0.1:20")}}
	pa, pb := writeSnap(t, "a.json", s), writeSnap(t, "b.json", s)
	var buf bytes.Buffer
	if err := snapshotCmd(&buf, []string{pa, pb}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diff: 0 only in a, 0 only in b, 0 divergent") {
		t.Fatalf("unexpected diff output:\n%s", buf.String())
	}
}

func TestSnapshotBadArgs(t *testing.T) {
	if err := snapshotCmd(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("no args accepted")
	}
	if err := snapshotCmd(&bytes.Buffer{}, []string{"/nonexistent.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzSnapshotFile feeds `snapshot` arbitrary bytes, alone (print) and as
// a pair (diff): a malformed file may be refused with an error, but never
// panics the inspector.
func FuzzSnapshotFile(f *testing.F) {
	// Small seeds keep the fuzzer's minimization of each new input short.
	valid, err := json.Marshal(&handoff.Snapshot{TakenAt: 50_000_000, Cursor: 42, Pipes: 2, Entries: []handoff.Entry{
		snapEntry(0, 1, "10.0.0.1:20"),
	}})
	if err != nil {
		f.Fatal(err)
	}
	other, err := json.Marshal(&handoff.Snapshot{Pipes: 1, Entries: []handoff.Entry{
		snapEntry(0, 2, "10.0.0.9:20"),
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, other)
	f.Add(valid, valid)
	f.Add([]byte(`{}`), []byte(`{"entries":[{}]}`))
	f.Add([]byte(`{"entries":[{"tuple":{},"vip":{},"dip":""}]}`), []byte(`null`))
	f.Add([]byte(``), []byte(`{"pipes":-1,"taken_at_ns":-9223372036854775808}`))
	// One pair of files per fuzzing process, rewritten by every input.
	dir := f.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if err := os.WriteFile(pa, a, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pb, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_ = snapshotCmd(io.Discard, []string{pa})
		_ = snapshotCmd(io.Discard, []string{pa, pb})
	})
}
