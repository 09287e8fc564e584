package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
)

// Built-in instrument names. All durations are histograms over virtual
// seconds; counters follow the Prometheus _total convention.
const (
	// MetricPendingWindow is the paper's §4.2 quantity: virtual seconds
	// from a connection's first packet (SYN seen) to its ConnTable entry
	// committing on the CPU. Learned insertions only.
	MetricPendingWindow = "silkroad_insert_pending_window_seconds"
	// MetricInsertsLearned counts insertions that went through the
	// learning filter and the bounded-rate CPU queue.
	MetricInsertsLearned = "silkroad_inserts_learned_total"
	// MetricDigestCollisions counts connections installed inline after a
	// SYN hit an aliasing ConnTable entry (digest false positive).
	MetricDigestCollisions = "silkroad_digest_collisions_total"
	// MetricBloomFPs counts connections installed inline after a
	// TransitTable bloom false positive.
	MetricBloomFPs = "silkroad_bloom_false_positives_total"
	// MetricInsertDuplicates counts insertion attempts that found the
	// connection already installed.
	MetricInsertDuplicates = "silkroad_insert_duplicates_total"
	// MetricInsertOverflows counts insertion attempts rejected because
	// ConnTable was full.
	MetricInsertOverflows = "silkroad_insert_overflows_total"
	// MetricInsertQueueDepth is the CPU insertion queue length after the
	// most recent insertion event.
	MetricInsertQueueDepth = "silkroad_insert_queue_depth"
	// MetricInsertQueuePeak is the high-water mark of the insertion queue.
	MetricInsertQueuePeak = "silkroad_insert_queue_peak"
	// MetricUpdatesRequested counts PCC update requests entering VIP queues.
	MetricUpdatesRequested = "silkroad_updates_requested_total"
	// MetricUpdatesCompleted counts updates that finished step 3.
	MetricUpdatesCompleted = "silkroad_updates_completed_total"
	// MetricUpdateRecord is step 1's duration: t_req to t_exec, the time
	// spent waiting for pre-update connections to drain into ConnTable.
	MetricUpdateRecord = "silkroad_update_record_seconds"
	// MetricUpdateTransition is step 2's duration: t_exec until the
	// TransitTable could stop arbitrating.
	MetricUpdateTransition = "silkroad_update_transition_seconds"
	// MetricUpdateTotal is the full t_req-to-done update latency.
	MetricUpdateTotal = "silkroad_update_total_seconds"
	// MetricLearnFlushes counts learning-filter drains.
	MetricLearnFlushes = "silkroad_learn_flushes_total"
	// MetricLearnFullFlushes counts drains triggered by capacity rather
	// than timeout.
	MetricLearnFullFlushes = "silkroad_learn_full_flushes_total"
	// MetricLearnBatch is the batch-size distribution of filter drains.
	MetricLearnBatch = "silkroad_learn_batch_size"
	// MetricMeterDropBytes counts wire bytes dropped by VIP meters.
	MetricMeterDropBytes = "silkroad_meter_dropped_bytes_total"
	// MetricCuckooKickChain is the displacement-chain length distribution of
	// ConnTable insertions (0 = direct placement; §4.1's BFS moves).
	MetricCuckooKickChain = "silkroad_cuckoo_kick_chain_moves"
	// MetricCuckooRelocations counts entries migrated to another stage to
	// resolve digest aliases (§4.2).
	MetricCuckooRelocations = "silkroad_cuckoo_relocations_total"
	// MetricCuckooFailures counts ConnTable mutations that failed (no
	// insertion path, unresolved alias).
	MetricCuckooFailures = "silkroad_cuckoo_failures_total"
	// MetricConnTableOccupancy is ConnTable entries per million slots after
	// the most recent mutation (chip-wide last-writer-wins across pipes).
	MetricConnTableOccupancy = "silkroad_conntable_occupancy_ppm"
	// MetricInsertRetries counts insertions that hit a full ConnTable and
	// were re-queued with backoff instead of failing terminally.
	MetricInsertRetries = "silkroad_insert_retries_total"
	// MetricInsertSheds counts learn events dropped at the CPU insertion
	// queue's hard bound (Config.MaxInsertQueue).
	MetricInsertSheds = "silkroad_insert_sheds_total"
	// MetricDegradedTransitions counts dataplane degraded-mode transitions
	// (both directions: entering and leaving degraded service).
	MetricDegradedTransitions = "silkroad_degraded_transitions_total"
	// MetricDegradedPipes is the number of pipes currently in degraded mode
	// (new flows served stateless because ConnTable is past its watermark).
	MetricDegradedPipes = "silkroad_degraded_pipes"
	// MetricFaultsInjected counts faults applied by the injection layer.
	MetricFaultsInjected = "silkroad_faults_injected_total"
	// MetricReconcileRounds counts reconcile rounds run by the
	// desired-state controller (internal/intent).
	MetricReconcileRounds = "silkroad_reconcile_rounds_total"
	// MetricReconcileApplies counts writes (add/update/remove) the
	// reconciler issued against targets.
	MetricReconcileApplies = "silkroad_reconcile_applies_total"
	// MetricReconcileNoops counts keys found already converged (zero
	// writes issued).
	MetricReconcileNoops = "silkroad_reconcile_noops_total"
	// MetricReconcileRetries counts failed applies requeued with backoff.
	MetricReconcileRetries = "silkroad_reconcile_retries_total"
	// MetricReconcileRollbacks counts targets rolled back to the prior
	// desired state after a partial fleet failure.
	MetricReconcileRollbacks = "silkroad_reconcile_rollbacks_total"
	// MetricReconcileErrors counts keys entering the Error condition.
	MetricReconcileErrors = "silkroad_reconcile_errors_total"
	// MetricReconcileDrift counts observed-vs-desired divergences found by
	// drift scans.
	MetricReconcileDrift = "silkroad_reconcile_drift_detected_total"
	// MetricReconcileApplyLatency is desired-set to applied latency in
	// virtual seconds, per successfully applied key.
	MetricReconcileApplyLatency = "silkroad_reconcile_apply_latency_seconds"

	// MetricHandoffExported counts ConnTable entries pulled from donors
	// during connection-state transfers (snapshot chunks + delta records).
	MetricHandoffExported = "silkroad_handoff_entries_exported_total"
	// MetricHandoffImported counts entries accepted by receivers.
	MetricHandoffImported = "silkroad_handoff_entries_imported_total"
	// MetricHandoffDeltas counts delta records replayed (inserts/deletes
	// that landed on the donor while a snapshot was in flight).
	MetricHandoffDeltas = "silkroad_handoff_delta_replays_total"
	// MetricHandoffChunks counts bounded snapshot chunks transferred.
	MetricHandoffChunks = "silkroad_handoff_chunks_total"
	// MetricHandoffRetries counts imported entries re-queued with backoff
	// after the receiver's ConnTable insert hit ErrTableFull.
	MetricHandoffRetries = "silkroad_handoff_import_retries_total"
	// MetricHandoffDuration is begin-to-converged transfer duration in
	// virtual seconds.
	MetricHandoffDuration = "silkroad_handoff_duration_seconds"
)

// Default histogram bounds. Virtual-time histograms span 10 µs to 1 s,
// bracketing the paper's pending windows (sub-millisecond learning filter
// timeouts up to multi-millisecond insertion backlogs).
var (
	durationBounds = []float64{
		10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 300e-3, 1,
	}
	batchBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	kickBounds  = []float64{0, 1, 2, 4, 8, 16, 32, 64}
)

// builtin indexes the registry's built-in instruments: the rows of
// builtins and of Registry.in.
type builtin uint8

const (
	insertsLearned builtin = iota
	digestFPs
	bloomFPs
	insertDups
	insertOverflows
	insertRetries
	insertSheds
	updatesRequested
	updatesCompleted
	learnFlushes
	learnFullFlushes
	meterDropBytes
	cuckooRelocations
	cuckooFailures
	degradedTransitions
	faultsInjected
	reconcileRounds
	reconcileApplies
	reconcileNoops
	reconcileRetries
	reconcileRollbacks
	reconcileErrors
	reconcileDrift
	handoffExported
	handoffImported
	handoffDeltas
	handoffChunks
	handoffRetries
	queueDepth
	queuePeak
	connOccupancy
	degradedPipes
	pendingWindow
	learnBatch
	updRecord
	updTransition
	updTotal
	kickChain
	reconcileApplyLatency
	handoffDuration
	numBuiltins
)

// builtins declares every built-in instrument once: its exposition name
// and its type — a histogram when it has bounds, else a gauge or a
// counter. NewRegistry registers each row; the event fold and the
// allocation-free readers reach them by index, never by name.
var builtins = [numBuiltins]struct {
	name   string
	gauge  bool
	bounds []float64
}{
	insertsLearned:        {name: MetricInsertsLearned},
	digestFPs:             {name: MetricDigestCollisions},
	bloomFPs:              {name: MetricBloomFPs},
	insertDups:            {name: MetricInsertDuplicates},
	insertOverflows:       {name: MetricInsertOverflows},
	insertRetries:         {name: MetricInsertRetries},
	insertSheds:           {name: MetricInsertSheds},
	updatesRequested:      {name: MetricUpdatesRequested},
	updatesCompleted:      {name: MetricUpdatesCompleted},
	learnFlushes:          {name: MetricLearnFlushes},
	learnFullFlushes:      {name: MetricLearnFullFlushes},
	meterDropBytes:        {name: MetricMeterDropBytes},
	cuckooRelocations:     {name: MetricCuckooRelocations},
	cuckooFailures:        {name: MetricCuckooFailures},
	degradedTransitions:   {name: MetricDegradedTransitions},
	faultsInjected:        {name: MetricFaultsInjected},
	reconcileRounds:       {name: MetricReconcileRounds},
	reconcileApplies:      {name: MetricReconcileApplies},
	reconcileNoops:        {name: MetricReconcileNoops},
	reconcileRetries:      {name: MetricReconcileRetries},
	reconcileRollbacks:    {name: MetricReconcileRollbacks},
	reconcileErrors:       {name: MetricReconcileErrors},
	reconcileDrift:        {name: MetricReconcileDrift},
	handoffExported:       {name: MetricHandoffExported},
	handoffImported:       {name: MetricHandoffImported},
	handoffDeltas:         {name: MetricHandoffDeltas},
	handoffChunks:         {name: MetricHandoffChunks},
	handoffRetries:        {name: MetricHandoffRetries},
	queueDepth:            {name: MetricInsertQueueDepth, gauge: true},
	queuePeak:             {name: MetricInsertQueuePeak, gauge: true},
	connOccupancy:         {name: MetricConnTableOccupancy, gauge: true},
	degradedPipes:         {name: MetricDegradedPipes, gauge: true},
	pendingWindow:         {name: MetricPendingWindow, bounds: durationBounds},
	learnBatch:            {name: MetricLearnBatch, bounds: batchBounds},
	updRecord:             {name: MetricUpdateRecord, bounds: durationBounds},
	updTransition:         {name: MetricUpdateTransition, bounds: durationBounds},
	updTotal:              {name: MetricUpdateTotal, bounds: durationBounds},
	kickChain:             {name: MetricCuckooKickChain, bounds: kickBounds},
	reconcileApplyLatency: {name: MetricReconcileApplyLatency, bounds: durationBounds},
	handoffDuration:       {name: MetricHandoffDuration, bounds: durationBounds},
}

// The counter each insert outcome other than InsertOK, each committed
// insert's kind, and each reconcile step feeds.
var (
	outcomeCounters = [...]builtin{InsertDuplicate: insertDups,
		InsertOverflow: insertOverflows, InsertRetry: insertRetries, InsertShed: insertSheds}
	insertCounters    = [...]builtin{InsertLearned: insertsLearned, InsertDigestFP: digestFPs, InsertBloomFP: bloomFPs}
	reconcileCounters = [...]builtin{ReconcileRound: reconcileRounds, ReconcileApply: reconcileApplies,
		ReconcileNoop: reconcileNoops, ReconcileRetry: reconcileRetries, ReconcileRollback: reconcileRollbacks,
		ReconcileError: reconcileErrors, ReconcileDrift: reconcileDrift}
)

// instrument is one built-in instrument: the pointer its type names is set.
type instrument struct {
	c *Counter
	g *Gauge
	h *Histogram
}

// pipeSeries is the per-pipe accumulator behind verdict events, plus the
// occupancy tap fed by cuckoo and degraded events: the last reported ConnTable
// entry count, effective capacity and degraded flag, readable without any
// lock the packet path shares (plain atomics).
type pipeSeries struct {
	packets  Counter
	bytes    Counter
	verdicts [NumVerdicts]Counter

	connEntries  Gauge
	connCapacity Gauge
	degraded     Gauge // 0 or 1
}

// PipeSnapshot is the serializable per-pipe view.
type PipeSnapshot struct {
	Pipe     int               `json:"pipe"`
	Packets  uint64            `json:"packets"`
	Bytes    uint64            `json:"bytes"`
	Verdicts map[string]uint64 `json:"verdicts"`
	// ConnEntries/ConnCapacity mirror the pipe's ConnTable occupancy after
	// its most recent mutation (effective capacity, post injected limits).
	ConnEntries  int64 `json:"conn_entries"`
	ConnCapacity int64 `json:"conn_capacity"`
	Degraded     bool  `json:"degraded,omitempty"`
}

type vipPipeKey struct {
	vip  VIPKey
	pipe int
}

// Registry is the default Tracer: it folds the event stream into named
// counters, gauges and histograms plus per-VIP and per-pipe series, all
// updated with atomic operations so events may arrive concurrently from
// every pipe while Snapshot scrapes.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	vips     map[vipPipeKey]*VIPSeries
	vipKeys  map[VIPKey]bool

	// build-info and process-start metadata for exposition; set once at
	// startup (cmd/silkroadd), read under mu at Snapshot.
	build        *BuildInfo
	processStart float64

	// pipes is copy-on-write: the fold loads the slice atomically and indexes
	// it; registration of a new pipe swaps in a grown copy under mu.
	pipes atomic.Pointer[[]*pipeSeries]

	// in holds the built-in instruments, indexed like builtins, so the
	// event fold never consults the name maps.
	in [numBuiltins]instrument
}

// NewRegistry creates a registry with every built-in instrument
// pre-registered.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		vips:     make(map[vipPipeKey]*VIPSeries),
		vipKeys:  make(map[VIPKey]bool),
	}
	empty := make([]*pipeSeries, 0)
	r.pipes.Store(&empty)

	for i, b := range builtins {
		switch {
		case b.bounds != nil:
			r.in[i].h = r.Histogram(b.name, b.bounds)
		case b.gauge:
			r.in[i].g = r.Gauge(b.name)
		default:
			r.in[i].c = r.Counter(b.name)
		}
	}
	return r
}

// Counter returns the named counter, creating it on first use. Safe to
// call at setup time; cache the result for hot paths.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (bounds are ignored if the name already exists).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// pipe returns pipe i's series, growing the pipe table if needed. The
// fast path is one atomic load and an index.
func (r *Registry) pipe(i int) *pipeSeries {
	if i < 0 {
		i = 0
	}
	ps := *r.pipes.Load()
	if i < len(ps) {
		return ps[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ps = *r.pipes.Load()
	if i < len(ps) {
		return ps[i]
	}
	grown := make([]*pipeSeries, i+1)
	copy(grown, ps)
	for j := len(ps); j <= i; j++ {
		grown[j] = &pipeSeries{}
	}
	r.pipes.Store(&grown)
	return grown[i]
}

// RegisterVIP implements Tracer: it returns the (pipe, VIP) series,
// creating it on first registration.
func (r *Registry) RegisterVIP(pipe int, vip VIPKey) *VIPSeries {
	r.pipe(pipe) // ensure the pipe exists before traffic arrives
	r.mu.Lock()
	defer r.mu.Unlock()
	k := vipPipeKey{vip: vip, pipe: pipe}
	s, ok := r.vips[k]
	if !ok {
		s = &VIPSeries{}
		r.vips[k] = s
		r.vipKeys[vip] = true
	}
	return s
}

// Trace implements Tracer: it folds the event into the instruments its
// kind feeds.
func (r *Registry) Trace(e Event) {
	switch e.Kind {
	case KindVerdict:
		p := r.pipe(e.Pipe)
		p.packets.Inc()
		p.bytes.Add(uint64(e.WireLen))
		if e.Verdict < NumVerdicts {
			p.verdicts[e.Verdict].Inc()
		}
		if v := e.VIP; v != nil {
			v.Packets.Inc()
			v.Bytes.Add(uint64(e.WireLen))
			if e.ConnHit {
				v.ConnHits.Inc()
			}
			if e.Learned {
				v.Learns.Inc()
			}
			if e.Verdict == VerdictNoBackend {
				v.NoBackend.Inc()
			}
		}
	case KindMeterDrop:
		r.in[meterDropBytes].c.Add(uint64(e.WireLen))
		if e.VIP != nil {
			e.VIP.MeterDrops.Inc()
			e.VIP.MeterBytes.Add(uint64(e.WireLen))
		}
	case KindInsert:
		r.in[queueDepth].g.Set(int64(e.QueueDepth))
		r.in[queuePeak].g.SetMax(int64(e.QueueDepth))
		if e.Outcome != InsertOK {
			r.in[outcomeCounters[e.Outcome]].c.Inc()
			return
		}
		r.in[insertCounters[e.Insert]].c.Inc()
		if e.Insert == InsertLearned {
			r.in[pendingWindow].h.Observe(e.Now.Sub(e.ArrivedAt).Seconds())
		}
		if e.VIP != nil {
			e.VIP.Conns.Inc()
		}
	case KindUpdateStep:
		switch e.UpdateStep {
		case StepRequested:
			r.in[updatesRequested].c.Inc()
		case StepTransition:
			r.in[updRecord].h.Observe(e.Now.Sub(e.ReqAt).Seconds())
		case StepDone:
			r.in[updatesCompleted].c.Inc()
			if e.ExecAt != 0 || e.ReqAt != 0 {
				r.in[updTransition].h.Observe(e.Now.Sub(e.ExecAt).Seconds())
				r.in[updTotal].h.Observe(e.Now.Sub(e.ReqAt).Seconds())
			}
		}
	case KindLearnFlush:
		r.in[learnFlushes].c.Inc()
		if e.Full {
			r.in[learnFullFlushes].c.Inc()
		}
		r.in[learnBatch].h.Observe(float64(e.Batch))
	case KindCuckoo:
		// Kick-chain distribution, relocation and failure counters, and the
		// chip-wide post-mutation occupancy gauge.
		if e.CuckooOp == CuckooInsert {
			r.in[kickChain].h.Observe(float64(e.Moves))
		}
		if e.Relocations > 0 {
			r.in[cuckooRelocations].c.Add(uint64(e.Relocations))
		}
		if !e.OK {
			r.in[cuckooFailures].c.Inc()
		}
		if e.Capacity > 0 {
			r.in[connOccupancy].g.Set(int64(e.Len) * 1_000_000 / int64(e.Capacity))
		}
		r.tapOccupancy(e.Pipe, e.Len, e.Effective, e.Capacity)
	case KindDegraded:
		// Transitions, and how many pipes are degraded, per pipe and
		// chip-wide.
		r.in[degradedTransitions].c.Inc()
		p := r.pipe(e.Pipe)
		if e.Degraded {
			r.in[degradedPipes].g.Add(1)
			p.degraded.Set(1)
		} else {
			r.in[degradedPipes].g.Add(-1)
			p.degraded.Set(0)
		}
		r.tapOccupancy(e.Pipe, e.Len, e.Effective, e.Capacity)
	case KindFault:
		r.in[faultsInjected].c.Inc()
	case KindReconcile:
		r.in[reconcileCounters[e.ReconcileStep]].c.Inc()
		if e.ReconcileStep == ReconcileApply {
			r.in[reconcileApplyLatency].h.Observe(e.Duration.Seconds())
		}
	case KindHandoff:
		switch e.HandoffStep {
		case HandoffChunk:
			r.in[handoffChunks].c.Inc()
			r.in[handoffExported].c.Add(uint64(e.Entries))
		case HandoffDelta:
			r.in[handoffDeltas].c.Add(uint64(e.Deltas))
			r.in[handoffExported].c.Add(uint64(e.Deltas))
		case HandoffRetry:
			r.in[handoffRetries].c.Inc()
		case HandoffDone:
			r.in[handoffImported].c.Add(uint64(e.Entries))
			r.in[handoffDuration].h.Observe(e.Duration.Seconds())
		}
	}
}

// tapOccupancy records a pipe's ConnTable occupancy, read by the SLO
// forecaster: entries and the effective capacity (the slot capacity when
// no limit was reported). A capacity of 0 leaves the tap alone.
func (r *Registry) tapOccupancy(pipe, entries, effective, capacity int) {
	if effective == 0 {
		effective = capacity
	}
	if effective > 0 {
		p := r.pipe(pipe)
		p.connEntries.Set(int64(entries))
		p.connCapacity.Set(int64(effective))
	}
}

// Snapshot is a consistent-enough point-in-time copy of every instrument:
// each individual counter is read atomically, so every value in a later
// snapshot is >= the same value in an earlier one (monotonicity), though
// values read while traffic runs may be skewed by in-flight packets
// relative to one another.
type Snapshot struct {
	// Now is the caller-supplied virtual timestamp of the scrape.
	Now simtime.Time `json:"now_ns"`
	// Elapsed is set by Delta: the virtual time between the snapshots.
	Elapsed    simtime.Duration             `json:"elapsed_ns,omitempty"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	VIPs       map[string]VIPSnapshot       `json:"vips"`
	Pipes      []PipeSnapshot               `json:"pipes"`
	// Build and ProcessStart carry process metadata when the registry was
	// stamped with SetBuildInfo/SetProcessStart (cmd/silkroadd does both).
	Build        *BuildInfo `json:"build,omitempty"`
	ProcessStart float64    `json:"process_start_unix_seconds,omitempty"`
}

// BuildInfo labels the running binary for the silkroad_build_info metric.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"goversion"`
}

// SetBuildInfo stamps the registry with the binary's version labels,
// exposed as the silkroad_build_info gauge (constant 1).
func (r *Registry) SetBuildInfo(version, goVersion string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.build = &BuildInfo{Version: version, GoVersion: goVersion}
}

// SetProcessStart stamps the process start time (Unix seconds), exposed as
// silkroad_process_start_time_seconds.
func (r *Registry) SetProcessStart(unixSeconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.processStart = unixSeconds
}

// Snapshot captures every instrument at virtual time now.
func (r *Registry) Snapshot(now simtime.Time) Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	vips := make(map[vipPipeKey]*VIPSeries, len(r.vips))
	for k, v := range r.vips {
		vips[k] = v
	}
	build := r.build
	processStart := r.processStart
	r.mu.Unlock()

	s := Snapshot{
		Now:        now,
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
		VIPs:       make(map[string]VIPSnapshot),
	}
	if build != nil {
		b := *build
		s.Build = &b
	}
	s.ProcessStart = processStart
	for n, c := range counters {
		s.Counters[n] = c.Load()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Load()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	for k, v := range vips {
		label := k.vip.String()
		agg := s.VIPs[label]
		v.snapshotInto(&agg)
		s.VIPs[label] = agg
	}
	for i, p := range *r.pipes.Load() {
		ps := PipeSnapshot{
			Pipe:         i,
			Packets:      p.packets.Load(),
			Bytes:        p.bytes.Load(),
			Verdicts:     make(map[string]uint64, NumVerdicts),
			ConnEntries:  p.connEntries.Load(),
			ConnCapacity: p.connCapacity.Load(),
			Degraded:     p.degraded.Load() != 0,
		}
		for v := Verdict(0); v < NumVerdicts; v++ {
			if n := p.verdicts[v].Load(); n > 0 {
				ps.Verdicts[v.String()] = n
			}
		}
		s.Pipes = append(s.Pipes, ps)
	}
	return s
}

// Delta returns the change from prev to s: counters, histogram buckets
// and per-VIP/per-pipe series are subtracted, gauges keep their current
// values, and Elapsed carries the virtual time between the scrapes. Use
// it to derive rates over virtual time:
//
//	d := cur.Delta(prev)
//	pps := float64(d.Counters[name]) / d.Elapsed.Seconds()
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Now:        s.Now,
		Elapsed:    s.Now.Sub(prev.Now),
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
		VIPs:       make(map[string]VIPSnapshot, len(s.VIPs)),
	}
	for n, v := range s.Counters {
		out.Counters[n] = v - prev.Counters[n]
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, h := range s.Histograms {
		if ph, ok := prev.Histograms[n]; ok {
			out.Histograms[n] = h.Delta(ph)
		} else {
			out.Histograms[n] = h
		}
	}
	for n, v := range s.VIPs {
		out.VIPs[n] = v.sub(prev.VIPs[n])
	}
	out.Build = s.Build
	out.ProcessStart = s.ProcessStart
	for i, p := range s.Pipes {
		// Occupancy fields keep gauge semantics: the delta reports the
		// current values, not a difference.
		d := PipeSnapshot{Pipe: p.Pipe, Packets: p.Packets, Bytes: p.Bytes,
			ConnEntries: p.ConnEntries, ConnCapacity: p.ConnCapacity, Degraded: p.Degraded,
			Verdicts: make(map[string]uint64, len(p.Verdicts))}
		for k, v := range p.Verdicts {
			d.Verdicts[k] = v
		}
		if i < len(prev.Pipes) {
			d.Packets -= prev.Pipes[i].Packets
			d.Bytes -= prev.Pipes[i].Bytes
			for k, v := range prev.Pipes[i].Verdicts {
				d.Verdicts[k] -= v
			}
		}
		out.Pipes = append(out.Pipes, d)
	}
	return out
}

// sortedKeys returns m's keys in ascending order (for deterministic
// exposition).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
