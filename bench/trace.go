package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per call the harness makes into the system. A batch span
// is the parent of the spans of the calls made for that batch.
const (
	spanBatch   = "batch"
	spanParse   = "netproto.parse"
	spanProcess = "silkroad.process_frames"
	spanRewrite = "netproto.rewrite"
	spanAdvance = "ctrlplane.advance"
	spanEndConn = "ctrlplane.endconn"
	spanUpdate  = "ctrlplane.update"
	spanTunnel  = "tunnel.send_to_sink"
)

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch (wall clock). Spans of one batch share its Batch number; Parent is
// the id of the span that caused this one, 0 for a root.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Batch  int64  `json:"batch"`
	// Packets is the number of packets the call covered.
	Packets int `json:"packets,omitempty"`
	// ActiveUpdates is the number of pool updates in flight when a
	// ctrlplane.advance span began.
	ActiveUpdates int `json:"active_updates,omitempty"`
}

// recorder keeps the spans of a traced run in memory; write puts them on
// disk once the run has ended. Its methods accept a nil receiver (an
// untraced run) and do nothing.
type recorder struct {
	epoch time.Time
	spans []span
	// cur is the open batch span's id; 0 when the current batch is not
	// sampled, which turns lap into a no-op.
	cur   uint32
	batch int64
	last  int64 // where the next lap starts
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// sampled picks one batch in 64, by a hash of its number so the choice does
// not beat against anything periodic in the schedule.
func sampled(batch int64) bool { return uint32(batch)*0x9E3779B1>>26 == 0 }

// openBatch starts batch number b of n packets; it is recorded if sampled.
func (r *recorder) openBatch(b int64, n int) {
	if r == nil {
		return
	}
	r.cur, r.batch = 0, b
	if sampled(b) {
		r.open(spanBatch, b, n)
	}
}

// open starts a root span that later laps and records hang under, until
// closeBatch ends it.
func (r *recorder) open(name string, b int64, n int) {
	r.last, r.batch = r.now(), b
	r.spans = append(r.spans, span{ID: uint32(len(r.spans) + 1), Name: name, Start: r.last, Batch: b, Packets: n})
	r.cur = uint32(len(r.spans))
}

// sampling reports whether the open batch is being recorded.
func (r *recorder) sampling() bool { return r != nil && r.cur != 0 }

// lap records the time since the previous lap (or skip) as a child span of
// the open batch.
func (r *recorder) lap(name string, packets, activeUpdates int) {
	if !r.sampling() {
		return
	}
	now := r.now()
	r.spans = append(r.spans, span{
		ID: uint32(len(r.spans) + 1), Parent: r.cur, Name: name,
		Start: r.last, End: now, Batch: r.batch, Packets: packets, ActiveUpdates: activeUpdates,
	})
	r.last = now
}

// skip restarts the lap clock: the time since the previous lap was the
// harness's own and belongs to the batch span's self time.
func (r *recorder) skip() {
	if r.sampling() {
		r.last = r.now()
	}
}

func (r *recorder) closeBatch() {
	if r.sampling() {
		r.spans[r.cur-1].End = r.now()
	}
}

// record adds a span measured by the caller, whether or not the open batch
// is sampled (pool updates are rare enough to record every one).
func (r *recorder) record(name string, start, end int64, packets int) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		ID: uint32(len(r.spans) + 1), Parent: r.cur, Name: name,
		Start: start, End: end, Batch: r.batch, Packets: packets,
	})
}

// spanTotal is the sum of a recorder's spans of one name.
type spanTotal struct {
	Count   int
	Packets int
	Nanos   int64
}

// totals sums the spans keep accepts (all of them if nil), by name.
func (r *recorder) totals(keep func(*span) bool) map[string]spanTotal {
	out := map[string]spanTotal{}
	if r == nil {
		return out
	}
	for i := range r.spans {
		s := &r.spans[i]
		if keep != nil && !keep(s) {
			continue
		}
		t := out[s.Name]
		t.Count++
		t.Packets += s.Packets
		t.Nanos += s.End - s.Start
		out[s.Name] = t
	}
	return out
}

// write stores the spans as <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Clock    string `json:"clock"`
		Sampling string `json:"sampling"`
		Spans    []span `json:"spans"`
	}{workload, seed, "wall-clock nanoseconds since the traced phase's recorder was created", "1 batch in 64; every ctrlplane.update", r.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
