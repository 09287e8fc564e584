// Package flightrec is the switch's flight recorder: fixed-size ring
// buffers that capture (a) INT-style per-packet trace records for sampled
// or filter-matched flows — the full verdict path a packet took through
// the pipeline — and (b) a journal of every control-plane event (DIP pool
// update steps, version bumps, cuckoo insertions with their kick-chain
// lengths, learn-filter flushes, entry migrations) with before/after state
// deltas.
//
// The Recorder implements telemetry.Tracer and wraps an inner tracer set
// with SetInner (typically the metrics Registry), so attaching it adds no
// branch to the untraced hot path: the dataplane keeps its single
// `tracer != nil` check, and the recorder's one Trace method records or
// journals each event by kind and forwards it downstream once. When no
// flow filter is armed and sampling is off, the per-packet cost is one
// atomic load.
//
// Ring discipline: a single atomic counter claims gap-free sequence
// numbers; each slot is guarded by its own mutex, so concurrent writers on
// different pipes only contend when they land on the same slot, and a
// drain never observes a torn record. The rings overwrite oldest-first and
// never block the pipeline.
package flightrec

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Record kinds in the packet ring.
const (
	KindVerdict = "verdict" // a packet traversed the pipeline
	KindInsert  = "insert"  // the CPU installed the flow's ConnTable entry
)

// Journal record kinds.
const (
	KindPoolUpdate = "pool_update"
	KindCuckoo     = "cuckoo"
	KindLearnFlush = "learn_flush"
	// KindInsertPressure: the CPU insertion path shed a learn event at the
	// queue bound or re-queued a full-table insertion with backoff.
	KindInsertPressure = "insert_pressure"
	// KindDegraded: a pipe crossed a ConnTable occupancy watermark and
	// switched between stateful and stateless (degraded) service.
	KindDegraded = "degraded"
	// KindFault: the fault-injection layer applied a fault.
	KindFault = "fault"
	// KindReconcile: the desired-state reconciler (internal/intent) took a
	// step: a round, an apply/noop, a retry, a rollback or a drift hit.
	KindReconcile = "reconcile"
	// KindHandoff: a connection-state transfer began, converged or was
	// cancelled (internal/handoff). Chunk/delta/retry steps are counted by
	// the metrics registry, not journaled.
	KindHandoff = "handoff"
)

// PacketRecord is one INT-style trace record: the pipeline decisions one
// packet (or one CPU insertion on behalf of a flow) experienced.
type PacketRecord struct {
	Seq     uint64             `json:"seq"`
	Now     simtime.Time       `json:"now_ns"`
	Pipe    int                `json:"pipe"`
	Kind    string             `json:"kind"` // KindVerdict or KindInsert
	Tuple   netproto.FiveTuple `json:"-"`
	Flow    string             `json:"flow"`    // tuple rendered for JSON
	Verdict string             `json:"verdict"` // verdict or insert outcome
	WireLen int                `json:"wire_len,omitempty"`
	Wire    bool               `json:"wire,omitempty"` // raw wire bytes (frame path), not a synthetic struct

	// Pipeline path annotations (KindVerdict).
	ConnHit    bool   `json:"conn_hit"`
	Stage      int    `json:"stage"` // ConnTable stage that matched; -1 on miss
	TransitHit bool   `json:"transit_hit"`
	Learned    bool   `json:"learned"`
	Meter      string `json:"meter,omitempty"` // meter color; empty when unmetered
	KeyHash    uint64 `json:"key_hash"`
	Digest     uint32 `json:"digest"`
	Version    uint32 `json:"version"`
	DIP        string `json:"dip,omitempty"` // chosen backend

	// CPU-side annotations (KindInsert).
	ArrivedAt  simtime.Time `json:"arrived_at_ns,omitempty"`
	QueueDepth int          `json:"queue_depth,omitempty"`
}

// JournalRecord is one control-plane event with its state delta.
type JournalRecord struct {
	Seq  uint64       `json:"seq"`
	Now  simtime.Time `json:"now_ns"`
	Pipe int          `json:"pipe"`
	Kind string       `json:"kind"`

	// Pool updates (KindPoolUpdate): the 3-step PCC machinery.
	Step        string       `json:"step,omitempty"` // requested/recording/transition/done
	VIP         string       `json:"vip,omitempty"`
	PrevVersion uint32       `json:"prev_version,omitempty"`
	Version     uint32       `json:"version,omitempty"`
	Before      []string     `json:"before,omitempty"` // pool before the bump
	After       []string     `json:"after,omitempty"`  // pool after the bump
	ReqAt       simtime.Time `json:"t_req_ns,omitempty"`
	ExecAt      simtime.Time `json:"t_exec_ns,omitempty"`

	// Cuckoo operations (KindCuckoo): insertions, migrations, deletes.
	Op          string `json:"op,omitempty"` // insert/relocate/delete
	KeyHash     uint64 `json:"key_hash,omitempty"`
	Digest      uint32 `json:"digest,omitempty"`
	Moves       int    `json:"moves,omitempty"` // kick-chain length
	Relocations int    `json:"relocations,omitempty"`
	OK          bool   `json:"ok"`
	Len         int    `json:"len,omitempty"`      // table entries after the op
	Capacity    int    `json:"capacity,omitempty"` // table slot capacity

	// Learn-filter flushes (KindLearnFlush).
	Batch int  `json:"batch,omitempty"`
	Full  bool `json:"full,omitempty"`

	// Insert pressure (KindInsertPressure): Op is the outcome ("retry" or
	// "shed") and QueueDepth the CPU queue length after the event.
	QueueDepth int `json:"queue_depth,omitempty"`

	// Degraded transitions (KindDegraded): Op is "enter" or "exit"; Len and
	// Capacity above carry the occupancy at the crossing.

	// Injected faults (KindFault): Op is the fault kind; the remaining
	// fields carry its parameters.
	DIP      string           `json:"dip,omitempty"`
	Duration simtime.Duration `json:"duration_ns,omitempty"`
	Scale    float64          `json:"scale,omitempty"`
	Limit    int              `json:"limit,omitempty"`

	// Reconciler steps (KindReconcile): Step is the reconcile step name,
	// Op the write kind (add/update/remove), Pipe the fleet member index;
	// Duration carries the apply latency and Error any failure.
	Generation uint64 `json:"generation,omitempty"`
	Retries    int    `json:"retries,omitempty"`
	Error      string `json:"error,omitempty"`

	// Handoff steps (KindHandoff): Step is begin/done/cancel, Pipe the
	// donor member, Receiver the receiving member, Len the entry count,
	// Batch the delta count, Cursor the donor's journal sequence at
	// snapshot capture, Duration begin-to-finish.
	Receiver int    `json:"receiver,omitempty"`
	Cursor   uint64 `json:"cursor,omitempty"`
}

// slot is one ring cell. seq is the claimed sequence number plus one, so
// the zero value means "never written".
type slot[T any] struct {
	mu  sync.Mutex
	seq uint64
	rec T
}

// ring is a fixed-size overwrite-oldest MPMC buffer. A lock-free atomic
// counter claims globally ordered sequence numbers; the per-slot mutex
// makes each write and each drain copy atomic without ever blocking one
// writer on another writing a different slot.
type ring[T any] struct {
	head  atomic.Uint64
	slots []slot[T]
}

func newRing[T any](n int) *ring[T] { return &ring[T]{slots: make([]slot[T], n)} }

// put claims the next sequence number and stores rec, returning the seq.
func (r *ring[T]) put(rec T, stamp func(*T, uint64)) uint64 {
	seq := r.head.Add(1) - 1
	s := &r.slots[seq%uint64(len(r.slots))]
	s.mu.Lock()
	// A slower writer that claimed an older seq for this slot may arrive
	// after a faster one already wrote a newer generation; keep the newest.
	if s.seq == 0 || seq+1 > s.seq {
		stamp(&rec, seq)
		s.rec = rec
		s.seq = seq + 1
	}
	s.mu.Unlock()
	return seq
}

// next returns the next sequence number to be claimed (== total records
// ever written).
func (r *ring[T]) next() uint64 { return r.head.Load() }

// snapshot copies every written slot, ordered by sequence number.
func (r *ring[T]) snapshot() []T {
	type numbered struct {
		seq uint64
		rec T
	}
	tmp := make([]numbered, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			tmp = append(tmp, numbered{s.seq, s.rec})
		}
		s.mu.Unlock()
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].seq < tmp[j].seq })
	out := make([]T, len(tmp))
	for i := range tmp {
		out[i] = tmp[i].rec
	}
	return out
}

// Config sizes a Recorder.
type Config struct {
	// PacketRing is the packet-trace ring capacity (default 4096).
	PacketRing int
	// JournalRing is the control-plane journal capacity (default 8192).
	JournalRing int
	// SampleEvery records every Nth packet regardless of flow filters
	// (0 disables sampling; filters still work).
	SampleEvery int
}

// Recorder is the flight recorder. It implements telemetry.Tracer.
type Recorder struct {
	inner       telemetry.Tracer
	packets     *ring[PacketRecord]
	journal     *ring[JournalRecord]
	sampleEvery uint64
	sampleCtr   atomic.Uint64
	armed       atomic.Int32 // len(flows); checked before taking mu
	mu          sync.RWMutex
	flows       map[netproto.FiveTuple]*Flow
}

// New builds a Recorder from cfg.
func New(cfg Config) *Recorder {
	if cfg.PacketRing <= 0 {
		cfg.PacketRing = 4096
	}
	if cfg.JournalRing <= 0 {
		cfg.JournalRing = 8192
	}
	return &Recorder{
		packets:     newRing[PacketRecord](cfg.PacketRing),
		journal:     newRing[JournalRecord](cfg.JournalRing),
		sampleEvery: uint64(cfg.SampleEvery),
		flows:       make(map[netproto.FiveTuple]*Flow),
	}
}

// SetInner sets the downstream tracer every event is forwarded to,
// typically the metrics Registry; without one the recorder is the only
// sink. Wiring-time only — call before the recorder is attached to a
// switch, never while events are flowing.
func (r *Recorder) SetInner(t telemetry.Tracer) { r.inner = t }

// Flow is an armed flow filter: a handle for collecting one connection's
// recorded path.
type Flow struct {
	rec   *Recorder
	tuple netproto.FiveTuple
}

// Tuple returns the flow's five-tuple.
func (f *Flow) Tuple() netproto.FiveTuple { return f.tuple }

// Records returns the flow's trace records currently in the ring, oldest
// first.
func (f *Flow) Records() []PacketRecord { return f.rec.FlowTrace(f.tuple) }

// Stop disarms the filter. The flow's records stay in the ring until
// overwritten.
func (f *Flow) Stop() { f.rec.Disarm(f.tuple) }

// Arm installs a flow filter: every subsequent packet of t (and every CPU
// insertion on its behalf) is recorded. Arming an already-armed tuple
// returns the existing handle.
func (r *Recorder) Arm(t netproto.FiveTuple) *Flow {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.flows[t]; ok {
		return f
	}
	f := &Flow{rec: r, tuple: t}
	r.flows[t] = f
	r.armed.Store(int32(len(r.flows)))
	return f
}

// Disarm removes the filter for t (no-op when not armed).
func (r *Recorder) Disarm(t netproto.FiveTuple) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.flows, t)
	r.armed.Store(int32(len(r.flows)))
}

// Armed returns the currently armed tuples.
func (r *Recorder) Armed() []netproto.FiveTuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]netproto.FiveTuple, 0, len(r.flows))
	for t := range r.flows {
		out = append(out, t)
	}
	return out
}

// matches reports whether a packet for t should be recorded: an armed
// filter matches it, or sampling selects it. The armed==0 fast path is a
// single atomic load, keeping the recorder invisible to untraced flows.
func (r *Recorder) matches(t netproto.FiveTuple) bool {
	if r.sampleEvery > 0 && (r.sampleCtr.Add(1)-1)%r.sampleEvery == 0 {
		return true
	}
	if r.armed.Load() == 0 {
		return false
	}
	r.mu.RLock()
	_, ok := r.flows[t]
	r.mu.RUnlock()
	return ok
}

// filterMatch is matches without consuming a sampling tick (CPU-side
// events should not skew packet sampling).
func (r *Recorder) filterMatch(t netproto.FiveTuple) bool {
	if r.armed.Load() == 0 {
		return false
	}
	r.mu.RLock()
	_, ok := r.flows[t]
	r.mu.RUnlock()
	return ok
}

// Packets returns a snapshot of the packet-trace ring, oldest first.
func (r *Recorder) Packets() []PacketRecord { return r.packets.snapshot() }

// Journal returns a snapshot of the control-plane journal, oldest first.
func (r *Recorder) Journal() []JournalRecord { return r.journal.snapshot() }

// PacketSeq returns the total number of packet records ever written; the
// ring currently holds the trailing min(PacketSeq, capacity) of them.
func (r *Recorder) PacketSeq() uint64 { return r.packets.next() }

// JournalSeq returns the total number of journal records ever written.
// Sequence numbers are gap-free: a journal whose ring is large enough to
// hold every event contains exactly seqs 0..JournalSeq()-1.
func (r *Recorder) JournalSeq() uint64 { return r.journal.next() }

// FlowTrace returns the records of one flow currently in the ring, oldest
// first — the packet's full verdict path plus its CPU insertion, if both
// are still resident.
func (r *Recorder) FlowTrace(t netproto.FiveTuple) []PacketRecord {
	all := r.packets.snapshot()
	out := all[:0:0]
	for _, pr := range all {
		if pr.Tuple == t {
			out = append(out, pr)
		}
	}
	return out
}

// --- telemetry.Tracer implementation -----------------------------------

// RegisterVIP forwards to the inner tracer.
func (r *Recorder) RegisterVIP(pipe int, vip telemetry.VIPKey) *telemetry.VIPSeries {
	if r.inner == nil {
		return nil
	}
	return r.inner.RegisterVIP(pipe, vip)
}

// Trace records the event by kind, then forwards it to the inner tracer.
// A verdict of an armed or sampled flow joins the packet ring; so does the
// CPU insertion of an armed flow. The journal takes every control-plane
// event but the high-frequency ones the registry only counts: meter drops
// (already in the verdict trace), reconcile rounds, and handoff chunks,
// deltas and retries.
func (r *Recorder) Trace(e telemetry.Event) {
	switch e.Kind {
	case telemetry.KindVerdict:
		if r.matches(e.Tuple) {
			r.packets.put(PacketRecord{
				Now:        e.Now,
				Pipe:       e.Pipe,
				Kind:       KindVerdict,
				Tuple:      e.Tuple,
				Flow:       e.Tuple.String(),
				Verdict:    e.Verdict.String(),
				WireLen:    e.WireLen,
				Wire:       e.Wire,
				ConnHit:    e.ConnHit,
				Stage:      e.Stage,
				TransitHit: e.TransitHit,
				Learned:    e.Learned,
				Meter:      meterString(e.Meter),
				KeyHash:    e.KeyHash,
				Digest:     e.Digest,
				Version:    e.Version,
				DIP:        dipString(e.DIP),
			}, stampPacket)
		}
	case telemetry.KindInsert:
		if e.Outcome == telemetry.InsertRetry || e.Outcome == telemetry.InsertShed {
			r.journal.put(JournalRecord{
				Now:        e.Now,
				Pipe:       e.Pipe,
				Kind:       KindInsertPressure,
				Op:         e.Outcome.String(),
				Version:    e.Version,
				QueueDepth: e.QueueDepth,
				OK:         true,
			}, stampJournal)
		}
		if r.filterMatch(e.Tuple) {
			r.packets.put(PacketRecord{
				Now:        e.Now,
				Pipe:       e.Pipe,
				Kind:       KindInsert,
				Tuple:      e.Tuple,
				Flow:       e.Tuple.String(),
				Verdict:    e.Insert.String() + "/" + e.Outcome.String(),
				Stage:      -1,
				Version:    e.Version,
				ArrivedAt:  e.ArrivedAt,
				QueueDepth: e.QueueDepth,
			}, stampPacket)
		}
	case telemetry.KindUpdateStep:
		r.journal.put(JournalRecord{
			Now:         e.Now,
			Pipe:        e.Pipe,
			Kind:        KindPoolUpdate,
			Step:        e.UpdateStep.String(),
			VIP:         e.Key.String(),
			PrevVersion: e.PrevVersion,
			Version:     e.Version,
			Before:      poolStrings(e.Before),
			After:       poolStrings(e.After),
			ReqAt:       e.ReqAt,
			ExecAt:      e.ExecAt,
			OK:          true,
		}, stampJournal)
	case telemetry.KindLearnFlush:
		r.journal.put(JournalRecord{
			Now:   e.Now,
			Pipe:  e.Pipe,
			Kind:  KindLearnFlush,
			Batch: e.Batch,
			Full:  e.Full,
			OK:    true,
		}, stampJournal)
	case telemetry.KindCuckoo:
		r.journal.put(JournalRecord{
			Now:         e.Now,
			Pipe:        e.Pipe,
			Kind:        KindCuckoo,
			Op:          e.CuckooOp.String(),
			KeyHash:     e.KeyHash,
			Digest:      e.Digest,
			Version:     e.Version,
			Moves:       e.Moves,
			Relocations: e.Relocations,
			OK:          e.OK,
			Len:         e.Len,
			Capacity:    e.Capacity,
		}, stampJournal)
	case telemetry.KindDegraded:
		op := "exit"
		if e.Degraded {
			op = "enter"
		}
		r.journal.put(JournalRecord{
			Now:      e.Now,
			Pipe:     e.Pipe,
			Kind:     KindDegraded,
			Op:       op,
			Len:      e.Len,
			Capacity: e.Effective,
			OK:       true,
		}, stampJournal)
	case telemetry.KindFault:
		r.journal.put(JournalRecord{
			Now:      e.Now,
			Pipe:     e.Pipe,
			Kind:     KindFault,
			Op:       e.Fault,
			DIP:      dipString(e.DIP),
			Duration: e.Duration,
			Scale:    e.Scale,
			Limit:    e.Limit,
			OK:       true,
		}, stampJournal)
	case telemetry.KindReconcile:
		if e.ReconcileStep == telemetry.ReconcileRound {
			break
		}
		rec := JournalRecord{
			Now:        e.Now,
			Pipe:       e.Member,
			Kind:       KindReconcile,
			Step:       e.ReconcileStep.String(),
			Op:         e.Op,
			Generation: e.Generation,
			Retries:    e.Retries,
			Duration:   e.Duration,
			Error:      e.Err,
			OK:         e.Err == "",
		}
		if e.Key != (telemetry.VIPKey{}) {
			rec.VIP = e.Key.String()
		}
		r.journal.put(rec, stampJournal)
	case telemetry.KindHandoff:
		switch e.HandoffStep {
		case telemetry.HandoffBegin, telemetry.HandoffDone, telemetry.HandoffCancel:
			r.journal.put(JournalRecord{
				Now:      e.Now,
				Pipe:     e.Donor,
				Kind:     KindHandoff,
				Step:     e.HandoffStep.String(),
				Receiver: e.Receiver,
				Len:      e.Entries,
				Batch:    e.Deltas,
				Cursor:   e.Cursor,
				Duration: e.Duration,
				OK:       e.HandoffStep != telemetry.HandoffCancel,
			}, stampJournal)
		}
	}
	if r.inner != nil {
		r.inner.Trace(e)
	}
}

func stampPacket(p *PacketRecord, seq uint64)   { p.Seq = seq }
func stampJournal(j *JournalRecord, seq uint64) { j.Seq = seq }

func meterString(c telemetry.MeterColor) string {
	if c == telemetry.MeterNone {
		return ""
	}
	return c.String()
}

func dipString(d netip.AddrPort) string {
	if !d.IsValid() {
		return ""
	}
	return d.String()
}

func poolStrings(pool []netip.AddrPort) []string {
	if pool == nil {
		return nil
	}
	out := make([]string, len(pool))
	for i, d := range pool {
		out[i] = d.String()
	}
	return out
}
