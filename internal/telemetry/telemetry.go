// Package telemetry is the observability layer of the SilkRoad stack: one
// Event type the data plane, control plane, learning filter, fault
// injector, reconciler and handoff pump emit at their decision points
// through a two-method Tracer (RegisterVIP and Trace), plus a metrics
// Registry (package telemetry's default Tracer) that folds those events
// into counters, gauges and fixed-bucket histograms keyed by VIP and pipe.
//
// The paper's headline claims are quantitative — the pending-connection
// window opened by slow CPU insertion (§4.2), digest and bloom false
// positives, per-VIP load under meters — and none of them are observable
// from end-of-run counter totals alone. The event kinds sit exactly at the
// events those claims are about: KindVerdict, one per packet with the
// pipeline's verdict; KindInsert, one per ConnTable insertion attempt,
// carrying the connection's first-packet arrival time (the pending window)
// and how it was learned; KindUpdateStep, the 3-step PCC update's
// transitions with the t_req / t_exec timestamps of Figure 9; and
// KindLearnFlush, KindMeterDrop, KindCuckoo, KindDegraded, KindFault,
// KindReconcile and KindHandoff for the rest of the machinery.
//
// Cost model: a component holds its Tracer in a plain interface field, and
// nil is the untraced value: it costs exactly one branch per event site.
// Events travel by value, so an armed tracer allocates nothing per event.
// Per-VIP hot-path accounting goes through a *VIPSeries handle resolved
// once at VIP installation (RegisterVIP) and carried inside the events, so
// no tracer ever performs a map lookup on the packet path. All Registry
// state is atomic: events may arrive from concurrent pipes and Snapshot can
// be scraped while traffic runs.
//
// Everything is in virtual time (simtime); the registry never reads the
// wall clock, so metrics are as deterministic as the simulation itself.
package telemetry

import (
	"fmt"
	"net/netip"

	"repro/internal/netproto"
	"repro/internal/simtime"
)

// VIPKey identifies a VIP in telemetry series without importing the
// dataplane package (which imports telemetry): virtual address, port, and
// the IP protocol number.
type VIPKey struct {
	Addr  netip.Addr
	Port  uint16
	Proto uint8
}

// String renders the key as addr:port/proto, the label used in exposition.
func (k VIPKey) String() string {
	proto := fmt.Sprintf("%d", k.Proto)
	switch k.Proto {
	case 6:
		proto = "tcp"
	case 17:
		proto = "udp"
	}
	return fmt.Sprintf("%s/%s", netip.AddrPortFrom(k.Addr, k.Port), proto)
}

// Verdict mirrors the data plane's packet verdicts. The numeric values
// MUST match dataplane.Verdict (asserted by a test in that package);
// duplicating the constants here keeps telemetry a leaf package.
type Verdict uint8

// Verdicts, in dataplane order.
const (
	VerdictForward Verdict = iota
	VerdictNoVIP
	VerdictMeterDrop
	VerdictRedirectSYNConn
	VerdictRedirectSYNTransit
	VerdictNoBackend
	// NumVerdicts sizes per-verdict counter arrays.
	NumVerdicts
)

// String names the verdict for exposition labels.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictNoVIP:
		return "no_vip"
	case VerdictMeterDrop:
		return "meter_drop"
	case VerdictRedirectSYNConn:
		return "redirect_syn_conntable"
	case VerdictRedirectSYNTransit:
		return "redirect_syn_transittable"
	case VerdictNoBackend:
		return "no_backend"
	default:
		return fmt.Sprintf("verdict_%d", uint8(v))
	}
}

// InsertKind classifies how a connection reached ConnTable.
type InsertKind uint8

// Insert kinds.
const (
	// InsertLearned: the normal path — learning filter batch, CPU queue,
	// bounded-rate insertion. Its events carry the real pending window.
	InsertLearned InsertKind = iota
	// InsertDigestFP: installed inline while arbitrating a SYN that hit an
	// aliasing ConnTable entry (digest false positive, §4.2).
	InsertDigestFP
	// InsertBloomFP: installed inline while arbitrating a SYN the
	// TransitTable wrongly claimed as pending (bloom false positive, §4.3).
	InsertBloomFP
)

// String names the kind.
func (k InsertKind) String() string {
	switch k {
	case InsertLearned:
		return "learned"
	case InsertDigestFP:
		return "digest_fp"
	case InsertBloomFP:
		return "bloom_fp"
	default:
		return fmt.Sprintf("kind_%d", uint8(k))
	}
}

// InsertOutcome is what happened to one insertion attempt.
type InsertOutcome uint8

// Insert outcomes.
const (
	InsertOK        InsertOutcome = iota // entry committed
	InsertDuplicate                      // connection already installed
	InsertOverflow                       // ConnTable full; left unpinned
	// InsertRetry: the insertion hit a full ConnTable and was re-queued
	// with backoff instead of failing terminally.
	InsertRetry
	// InsertShed: the learn event was dropped at the CPU queue's hard
	// bound (Config.MaxInsertQueue); the connection stays unpinned and a
	// later packet may re-offer it.
	InsertShed
)

// String names the outcome.
func (o InsertOutcome) String() string {
	switch o {
	case InsertOK:
		return "ok"
	case InsertDuplicate:
		return "duplicate"
	case InsertOverflow:
		return "overflow"
	case InsertRetry:
		return "retry"
	case InsertShed:
		return "shed"
	default:
		return fmt.Sprintf("outcome_%d", uint8(o))
	}
}

// UpdateStep is a state transition of the 3-step PCC update (Figure 9).
type UpdateStep uint8

// Update steps.
const (
	// StepRequested: an update entered the VIP's queue.
	StepRequested UpdateStep = iota
	// StepRecording: step 1 began (t_req) — misses are recorded in the
	// TransitTable while pre-update connections drain into ConnTable.
	StepRecording
	// StepTransition: step 2 began (t_exec) — the VIPTable version swapped;
	// misses consult the TransitTable.
	StepTransition
	// StepDone: step 3 — the update completed and the filter may clear.
	StepDone
)

// String names the step.
func (s UpdateStep) String() string {
	switch s {
	case StepRequested:
		return "requested"
	case StepRecording:
		return "recording"
	case StepTransition:
		return "transition"
	case StepDone:
		return "done"
	default:
		return fmt.Sprintf("step_%d", uint8(s))
	}
}

// MeterColor mirrors regarray.Color without importing that package (the
// numeric values match: 0 green, 1 yellow, 2 red; 255 = unmetered VIP).
type MeterColor uint8

// Meter colors.
const (
	MeterGreen  MeterColor = 0
	MeterYellow MeterColor = 1
	MeterRed    MeterColor = 2
	// MeterNone marks packets of unmetered VIPs.
	MeterNone MeterColor = 255
)

// String names the color.
func (c MeterColor) String() string {
	switch c {
	case MeterGreen:
		return "green"
	case MeterYellow:
		return "yellow"
	case MeterRed:
		return "red"
	case MeterNone:
		return "none"
	default:
		return fmt.Sprintf("color_%d", uint8(c))
	}
}

// CuckooOp classifies a ConnTable (cuckoo) mutation.
type CuckooOp uint8

// Cuckoo operations.
const (
	// CuckooInsert: a CPU insertion, possibly after a displacement (kick)
	// chain freed a slot.
	CuckooInsert CuckooOp = iota
	// CuckooRelocate: an entry migrated to a different stage to resolve a
	// digest alias (the paper's SYN-collision fix).
	CuckooRelocate
	// CuckooDelete: an entry removed (connection ended or aged out).
	CuckooDelete
)

// String names the operation.
func (o CuckooOp) String() string {
	switch o {
	case CuckooInsert:
		return "insert"
	case CuckooRelocate:
		return "relocate"
	case CuckooDelete:
		return "delete"
	default:
		return fmt.Sprintf("op_%d", uint8(o))
	}
}

// ReconcileStep identifies one event from the desired-state reconciler
// (internal/intent).
type ReconcileStep uint8

const (
	// ReconcileRound marks one reconcile round over the due work.
	ReconcileRound ReconcileStep = iota
	// ReconcileApply marks one write (add/update/remove) applied to a target.
	ReconcileApply
	// ReconcileNoop marks a key whose observed state already matched the
	// desired state (zero writes).
	ReconcileNoop
	// ReconcileRetry marks a failed apply requeued with backoff.
	ReconcileRetry
	// ReconcileRollback marks a previously-applied target rolled back to
	// the prior desired state after a partial fleet failure.
	ReconcileRollback
	// ReconcileError marks a key entering the Error condition (retry
	// budget exhausted).
	ReconcileError
	// ReconcileDrift marks observed state diverging from desired state
	// outside an apply (detected by a drift scan).
	ReconcileDrift
)

var reconcileStepNames = [...]string{"round", "apply", "noop", "retry", "rollback", "error", "drift"}

func (s ReconcileStep) String() string {
	if int(s) < len(reconcileStepNames) {
		return reconcileStepNames[s]
	}
	return "unknown"
}

// HandoffStep identifies one event from the connection-state handoff
// machinery (internal/handoff).
type HandoffStep uint8

const (
	// HandoffBegin marks a transfer starting: Entries carries the snapshot
	// size, Cursor the donor's journal sequence at capture.
	HandoffBegin HandoffStep = iota
	// HandoffChunk marks one bounded snapshot chunk pulled from the donor.
	HandoffChunk
	// HandoffDelta marks a delta round replayed (inserts/deletes that
	// landed on the donor while the snapshot was in flight).
	HandoffDelta
	// HandoffRetry marks an imported entry re-queued with backoff after
	// the receiver's ConnTable insert hit ErrTableFull.
	HandoffRetry
	// HandoffDone marks a converged transfer; Duration is begin-to-done.
	HandoffDone
	// HandoffCancel marks an abandoned transfer (stall rollback).
	HandoffCancel
)

var handoffStepNames = [...]string{"begin", "chunk", "delta", "retry", "done", "cancel"}

func (s HandoffStep) String() string {
	if int(s) < len(handoffStepNames) {
		return handoffStepNames[s]
	}
	return "unknown"
}

// Kind names the decision point that emitted an Event, and so which of its
// payload fields are set.
type Kind uint8

// Event kinds.
const (
	// KindVerdict: one packet's pipeline outcome (data plane, per packet).
	KindVerdict Kind = iota
	// KindMeterDrop: a packet a VIP meter marked red (data plane).
	KindMeterDrop
	// KindInsert: one ConnTable insertion attempt on the CPU (control plane).
	KindInsert
	// KindUpdateStep: a state transition of the 3-step PCC update.
	KindUpdateStep
	// KindLearnFlush: one learning-filter drain.
	KindLearnFlush
	// KindCuckoo: one ConnTable mutation (insert, alias relocation, delete).
	KindCuckoo
	// KindDegraded: a degraded-mode watermark crossing.
	KindDegraded
	// KindFault: an injected fault taking effect (internal/faults).
	KindFault
	// KindReconcile: a desired-state reconciler step (internal/intent).
	KindReconcile
	// KindHandoff: a connection-state transfer step (internal/handoff).
	KindHandoff
)

// Event is one traced occurrence. Kind says which decision point emitted
// it; Now, Pipe and VIP are the header most kinds share; the payload fields
// are grouped by the kinds that set them. A field two kinds share means the
// same thing to both, and a field an emitting kind does not list stays
// zero.
type Event struct {
	Kind Kind
	Now  simtime.Time
	// Pipe is the emitting pipeline; for KindFault, the target pipe (-1 =
	// every pipe). Unset for KindReconcile and KindHandoff.
	Pipe int
	// VIP is the (pipe, VIP) accumulator RegisterVIP returned (KindVerdict,
	// KindMeterDrop, KindInsert, KindUpdateStep); nil when the destination
	// is no registered VIP or the tracer keeps no per-VIP series.
	VIP *VIPSeries

	// The packet's path (KindVerdict; KindMeterDrop sets WireLen): the hardware
	// verdict before any CPU arbitration rewrites it, with the INT-style
	// annotations a flight recorder needs to say why a flow landed on its
	// DIP.
	Verdict    Verdict
	Wire       bool // came in as raw wire bytes (frame path), not a synthetic struct
	ConnHit    bool // served from ConnTable
	Learned    bool // generated a learn event
	TransitHit bool // TransitTable bloom said "pending"
	Meter      MeterColor
	WireLen    int            // bytes on the wire
	Stage      int            // ConnTable stage that matched; -1 on miss
	DIP        netip.AddrPort // the chosen backend; for KindFault, the DIP a DIP fault hits

	// The connection (KindVerdict and KindInsert set Tuple; KindVerdict and
	// KindCuckoo set KeyHash and Digest). Version is the DIP pool version: the one a
	// verdict decided with, an insert pinned, an update bumps to, or a
	// cuckoo entry holds.
	Tuple   netproto.FiveTuple
	KeyHash uint64
	Digest  uint32
	Version uint32

	// Insert: how the connection reached ConnTable and what happened.
	// Now - ArrivedAt (first packet seen) is the pending window the paper
	// reasons about, meaningful for InsertLearned; QueueDepth is the CPU
	// insertion queue length after the attempt.
	Insert     InsertKind
	Outcome    InsertOutcome
	ArrivedAt  simtime.Time
	QueueDepth int

	// Update step: ReqAt is t_req (zero before StepRecording), ExecAt t_exec
	// (zero before StepTransition); PrevVersion -> Version is the bump, and
	// Before/After the pools it moves between (nil when the step does not
	// know them). Key names the VIP, here and for KindReconcile (zero for a
	// reconcile round).
	UpdateStep  UpdateStep
	PrevVersion uint32
	ReqAt       simtime.Time
	ExecAt      simtime.Time
	Key         VIPKey
	Before      []netip.AddrPort
	After       []netip.AddrPort

	// Learn flush: events handed to the CPU, and whether capacity (not the
	// timeout) triggered the drain.
	Batch int
	Full  bool

	// Cuckoo and degraded: OK is false when a mutation failed (table full,
	// unresolved alias) and Degraded is the direction of a crossing (true =
	// entered). Moves is an insertion's kick-chain length, Relocations the
	// aliasing entries an operation migrated. Len is ConnTable's occupancy
	// after the mutation or at the crossing, Capacity its slot count
	// (cuckoo) and Effective the capacity after any injected limit.
	CuckooOp    CuckooOp
	OK          bool
	Degraded    bool
	Moves       int
	Relocations int
	Len         int
	Capacity    int
	Effective   int

	// Fault: its kind label ("dip_down", "cpu_stall", ...) and parameters
	// where they apply (rate or loss Scale, table Limit). Duration is the
	// event's span: a fault's length, an applied reconcile's desired-to-
	// applied latency, a finished handoff's begin-to-end time.
	Fault    string
	Scale    float64
	Limit    int
	Duration simtime.Duration

	// Reconcile: Member is the fleet member (0 standalone, -1 fleet-level),
	// Op the write ("add", "update", "remove"), Retries the key's retry
	// count and Err the failure of a retry or error step.
	ReconcileStep ReconcileStep
	Member        int
	Op            string
	Generation    uint64
	Retries       int
	Err           string

	// Handoff: Donor and Receiver are fleet member indices (-1 when not
	// known). Entries is the step's entry count (snapshot size at begin,
	// chunk size, total imported at done/cancel), Deltas the delta records
	// replayed and Cursor the donor's journal sequence.
	HandoffStep HandoffStep
	Donor       int
	Receiver    int
	Entries     int
	Deltas      int
	Cursor      uint64
}

// Tracer receives the traced components' events. Implementations must be
// safe for concurrent use from multiple pipes. The Registry in this package
// is the default implementation. A nil Tracer is the untraced value:
// emitters hold one in an interface field and check it before building an
// event.
type Tracer interface {
	// RegisterVIP returns the per-(pipe, VIP) hot-path accumulator that
	// subsequent events for this VIP on this pipe will carry, or nil to
	// disable per-VIP accounting. Called once per VIP installation per
	// pipe; re-registering the same (pipe, VIP) returns the same series,
	// so counters stay cumulative across VIP re-announcements.
	RegisterVIP(pipe int, vip VIPKey) *VIPSeries
	// Trace receives one event. It is passed by value: a pointer to the
	// emitter's stack would escape through the interface call and cost a
	// heap allocation per packet.
	Trace(e Event)
}
