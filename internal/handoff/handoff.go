// Package handoff implements connection-state transfer between SilkRoad
// switches: a versioned snapshot of a donor's ConnTable shard streamed in
// bounded chunks, plus a delta stream that replays the inserts and deletes
// landing while the snapshot is in flight. A receiver pumping a Transfer
// converges to the donor's exact table without the donor's packet path
// ever pausing — the warm-migration primitive behind switch drains,
// rolling upgrades, and rejoin-after-restore.
//
// The package is deliberately a leaf: it defines the wire types (Entry,
// Snapshot), the small Exporter/Importer interfaces, and the Transfer
// pump. The control plane provides the concrete Exporter (an
// ExportSession over its connection shadow) and Importer (rate-bounded
// imports through the CPU insertion queue); the fleet (silkroad.Cluster)
// routes entries across receivers and decides when to cut traffic over.
package handoff

import (
	"errors"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// ErrBackpressure is returned by an Importer whose insert queue is at its
// bound: the transfer pauses and resumes after the receiver's CPU drains.
// It deliberately mirrors the learn-path shed bound — imported entries
// must not starve the receiver's own learning.
var ErrBackpressure = errors.New("handoff: receiver insert queue full, back off")

// Op distinguishes snapshot/delta records.
type Op uint8

// Delta operations. Snapshot entries are always OpUpsert.
const (
	OpUpsert Op = iota
	OpDelete
)

func (o Op) String() string {
	if o == OpDelete {
		return "delete"
	}
	return "upsert"
}

// Entry is one connection's transferable state. Version is the donor's
// pool-version number — meaningless on the receiver, which maps Pool onto
// a local version holding the same row slot for slot (version numbers are
// switch-local; with shared hash seeds a connection picks the same slot on
// any switch, so the row's slot order, not its set of DIPs, is what makes
// DIP selection portable). DIP is the donor's resolved backend, carried so
// auditors (and snapshot diffs) can verify PCC without re-deriving the
// mapping.
type Entry struct {
	Op      Op                 `json:"op,omitempty"`
	Tuple   netproto.FiveTuple `json:"tuple"`
	KeyHash uint64             `json:"key_hash"`
	Digest  uint32             `json:"digest"`
	VIP     dataplane.VIP      `json:"vip"`
	Version uint32             `json:"version"`
	DIP     dataplane.DIP      `json:"dip"`
	Pool    []dataplane.DIP    `json:"pool,omitempty"`
}

// Snapshot is a point-in-time export of a switch's ConnTable in portable
// form — what Switch.Export returns and what silkroad-inspect's snapshot
// subcommand pretty-prints and diffs. Cursor is the flight-recorder
// journal sequence at capture: two snapshots of the same switch order by
// it, and a delta stream starting at the cursor reconstructs everything
// the snapshot missed.
type Snapshot struct {
	TakenAt simtime.Time `json:"taken_at_ns"`
	Cursor  uint64       `json:"cursor"`
	Pipes   int          `json:"pipes"`
	Entries []Entry      `json:"entries"`
}

// Exporter is the donor side of a transfer: a stable snapshot drained in
// bounded chunks plus the deltas accumulated since the last drain. The
// control plane's ExportSession implements it.
type Exporter interface {
	// Pending returns the number of snapshot entries not yet chunked out.
	Pending() int
	// NextChunk returns up to max snapshot entries, advancing the stream.
	NextChunk(max int) []Entry
	// Deltas drains the inserts/deletes recorded since the last call.
	Deltas() []Entry
	// Cursor is the donor's journal sequence at snapshot time.
	Cursor() uint64
	// Close detaches the session from the donor's delta feed.
	Close()
}

// Importer is the receiver side. Import returns ErrBackpressure to pause
// the pump (the entry will be re-offered), any other error to drop the
// entry. Delete replays a delta delete.
type Importer interface {
	Import(now simtime.Time, e Entry) error
	Delete(now simtime.Time, e Entry)
}

// Config parameterizes a Transfer.
type Config struct {
	// ChunkSize bounds entries pulled from the exporter per Step call
	// segment (default 256) — the unit the chunk counter counts.
	ChunkSize int
	// Tracer receives the transfer's KindHandoff events (nil = untraced).
	Tracer telemetry.Tracer
	// Donor and Receiver label telemetry events.
	Donor, Receiver int
}

// Stats counts a transfer's work.
type Stats struct {
	Exported uint64 `json:"exported"` // entries pulled from the donor
	Imported uint64 `json:"imported"` // entries accepted by the receiver
	Deltas   uint64 `json:"deltas"`   // delta records replayed
	Chunks   uint64 `json:"chunks"`   // snapshot chunks pulled
	Backoffs uint64 `json:"backoffs"` // pump pauses on ErrBackpressure
}

// Transfer pumps one Exporter into one Importer: snapshot chunks first,
// then delta rounds, pausing on backpressure and converging when the
// snapshot is exhausted and the delta stream runs dry. It never blocks
// the donor: exports read a frozen snapshot plus an append-only delta
// buffer, so the donor's packet path proceeds at full rate throughout.
type Transfer struct {
	cfg Config
	ex  Exporter
	im  Importer

	buf     []Entry // entries pulled but not yet imported (backpressure)
	began   simtime.Time
	started bool
	closed  bool
	stats   Stats
}

// NewTransfer builds a transfer of ex into im.
func NewTransfer(ex Exporter, im Importer, cfg Config) *Transfer {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 256
	}
	return &Transfer{cfg: cfg, ex: ex, im: im}
}

// Stats returns the transfer's counters so far.
func (t *Transfer) Stats() Stats { return t.stats }

// Step pumps up to budget entries (snapshot before deltas) and reports
// whether the transfer has converged: snapshot exhausted, no buffered
// entries, delta stream dry. budget <= 0 means unbounded. On receiver
// backpressure the remaining entries stay buffered and Step returns
// early; the caller retries after advancing the receiver's virtual time.
// The returned moved count is the number of records applied this call —
// the progress signal rollback logic watches for stalls.
func (t *Transfer) Step(now simtime.Time, budget int) (moved int, done bool) {
	if t.closed {
		return 0, true
	}
	if !t.started {
		t.started = true
		t.began = now
		t.trace(telemetry.Event{Now: now, HandoffStep: telemetry.HandoffBegin,
			Entries: t.ex.Pending(), Cursor: t.ex.Cursor()})
	}
	for budget <= 0 || moved < budget {
		if len(t.buf) == 0 {
			if !t.fill() {
				break
			}
		}
		e := t.buf[0]
		if e.Op == OpDelete {
			t.im.Delete(now, e)
			t.buf = t.buf[1:]
			moved++
			continue
		}
		if err := t.im.Import(now, e); err != nil {
			if errors.Is(err, ErrBackpressure) {
				t.stats.Backoffs++
				return moved, false
			}
			// Non-retryable (VIP withdrawn on the receiver, version space
			// exhausted): drop the entry rather than wedge the transfer;
			// the connection falls back to unpinned VIPTable resolution.
		} else {
			t.stats.Imported++
		}
		t.buf = t.buf[1:]
		moved++
	}
	if t.ex.Pending() == 0 && len(t.buf) == 0 {
		// Converged up to the delta frontier. One more dry check: a delta
		// may have landed while we imported the last batch.
		if d := t.ex.Deltas(); len(d) > 0 {
			t.buf = append(t.buf, d...)
			t.noteDeltas(now, len(d))
			return moved, false
		}
		return moved, true
	}
	return moved, false
}

// fill pulls the next batch into the buffer: a snapshot chunk while the
// snapshot lasts, then a delta round. Reports whether anything arrived.
func (t *Transfer) fill() bool {
	if t.ex.Pending() > 0 {
		chunk := t.ex.NextChunk(t.cfg.ChunkSize)
		if len(chunk) > 0 {
			t.buf = append(t.buf, chunk...)
			t.stats.Chunks++
			t.stats.Exported += uint64(len(chunk))
			t.trace(telemetry.Event{HandoffStep: telemetry.HandoffChunk, Entries: len(chunk)})
			return true
		}
	}
	if d := t.ex.Deltas(); len(d) > 0 {
		t.buf = append(t.buf, d...)
		t.noteDeltas(0, len(d))
		return true
	}
	return false
}

func (t *Transfer) noteDeltas(now simtime.Time, n int) {
	t.stats.Deltas += uint64(n)
	t.stats.Exported += uint64(n)
	t.trace(telemetry.Event{Now: now, HandoffStep: telemetry.HandoffDelta, Deltas: n})
}

// Finish marks the transfer complete and emits the Done event with the
// transfer's duration. Call after Step reports done and any final delta
// drain (post-cutover) has been applied.
func (t *Transfer) Finish(now simtime.Time) {
	if t.closed {
		return
	}
	t.closed = true
	t.trace(telemetry.Event{Now: now, HandoffStep: telemetry.HandoffDone,
		Entries: int(t.stats.Imported), Deltas: int(t.stats.Deltas),
		Cursor: t.ex.Cursor(), Duration: now.Sub(t.began)})
	t.ex.Close()
}

// Cancel abandons the transfer (rollback path): the session closes, the
// receiver keeps whatever it imported (callers unwind it), and the Cancel
// event is journaled.
func (t *Transfer) Cancel(now simtime.Time) {
	if t.closed {
		return
	}
	t.closed = true
	t.trace(telemetry.Event{Now: now, HandoffStep: telemetry.HandoffCancel,
		Entries: int(t.stats.Imported), Deltas: int(t.stats.Deltas),
		Duration: now.Sub(t.began)})
	t.ex.Close()
}

// trace emits one handoff step labelled with the transfer's members (a
// no-op when untraced).
func (t *Transfer) trace(e telemetry.Event) {
	if t.cfg.Tracer != nil {
		e.Kind, e.Donor, e.Receiver = telemetry.KindHandoff, t.cfg.Donor, t.cfg.Receiver
		t.cfg.Tracer.Trace(e)
	}
}

// Done reports whether Finish or Cancel has run.
func (t *Transfer) Done() bool { return t.closed }
