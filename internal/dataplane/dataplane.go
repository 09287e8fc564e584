// Package dataplane implements the SilkRoad switch data plane — the part of
// the system that is a ~400-line P4 program in the paper (Figure 10):
//
//	packet -> ConnTable (digest -> version) --hit--> DIPPoolTable -> forward
//	            |miss
//	            v
//	         VIPTable (VIP -> version), and if the VIP is mid-update,
//	         TransitTable (bloom filter of pending connections) decides
//	         between the old and new version; misses trigger learning.
//
// Everything here corresponds to hardware behaviour: lookups, per-packet
// bloom reads/writes, learn-event generation, metering and forwarding. All
// table mutations (inserts, version swaps, pool writes) are CPU-side
// operations exposed as methods for the ctrlplane package to call —
// mirroring the ASIC/switch-CPU split that creates the PCC problem in the
// first place.
package dataplane

import (
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/asic"
	"repro/internal/bloom"
	"repro/internal/cuckoo"
	"repro/internal/hashing"
	"repro/internal/learnfilter"
	"repro/internal/netproto"
	"repro/internal/regarray"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// VIP identifies a load-balanced service: a virtual address, port and
// protocol. It is comparable and used as the VIPTable key.
type VIP struct {
	Addr  netip.Addr
	Port  uint16
	Proto netproto.Proto
}

// String renders the VIP as addr:port/proto.
func (v VIP) String() string {
	return fmt.Sprintf("%s/%s", netip.AddrPortFrom(v.Addr, v.Port), v.Proto)
}

// VIPOf extracts the VIP a packet is addressed to.
func VIPOf(t netproto.FiveTuple) VIP {
	return VIP{Addr: t.Dst, Port: t.DstPort, Proto: t.Proto}
}

// TelemetryKey converts the VIP to its telemetry-series key.
func (v VIP) TelemetryKey() telemetry.VIPKey {
	return telemetry.VIPKey{Addr: v.Addr, Port: v.Port, Proto: uint8(v.Proto)}
}

// DIP is a direct (backend) address: IP and port.
type DIP = netip.AddrPort

// Config parameterizes a SilkRoad switch instance.
type Config struct {
	Chip                asic.Config
	ConnTableEntries    int              // sizing target for ConnTable
	DigestBits          int              // 16 (paper default) or 24
	VersionBits         int              // 6 (paper default)
	TransitTableBytes   int              // 256 (paper default)
	TransitTableHashes  int              // 4
	LearnFilterCapacity int              // 2048
	LearnFilterTimeout  simtime.Duration // 1 ms
	DisableTransit      bool             // ablation: SilkRoad w/o TransitTable
	Seed                uint64
	// DegradedHighWatermark and DegradedLowWatermark enable degraded mode:
	// fractions of ConnTable's effective capacity (0 < Low < High <= 1).
	// When occupancy reaches the high watermark the switch stops learning
	// new flows — they are served stateless through the per-version
	// VIPTable hash, which is stable as long as the version's pool is —
	// and resumes learning only once occupancy falls below the low
	// watermark (hysteresis). Zero disables degraded mode: the switch
	// learns until cuckoo insertion fails, as before.
	DegradedHighWatermark float64
	DegradedLowWatermark  float64
	// Tracer receives telemetry events from this switch and the components
	// it owns (learning filter, control plane). Nil disables tracing at the
	// cost of one branch per event site.
	Tracer telemetry.Tracer
	// Pipe is this switch's pipeline index on the chip, labelling its
	// telemetry events (0 for a single-pipe switch).
	Pipe int
}

// DefaultConfig returns the paper's operating point for a switch expected
// to hold n connections.
func DefaultConfig(n int) Config {
	return Config{
		Chip:                asic.Tofino64(),
		ConnTableEntries:    n,
		DigestBits:          16,
		VersionBits:         6,
		TransitTableBytes:   256,
		TransitTableHashes:  4,
		LearnFilterCapacity: 2048,
		LearnFilterTimeout:  simtime.Duration(simtime.Millisecond),
		Seed:                0xa5a5,
	}
}

// Verdict classifies the outcome of processing one packet.
type Verdict uint8

// Verdicts.
const (
	// VerdictForward: the packet was forwarded to Result.DIP at line rate.
	VerdictForward Verdict = iota
	// VerdictNoVIP: destination is not a registered VIP.
	VerdictNoVIP
	// VerdictMeterDrop: the VIP's meter marked the packet red.
	VerdictMeterDrop
	// VerdictRedirectSYNConn: a SYN matched an existing ConnTable entry —
	// a suspected digest false positive; the CPU must arbitrate (§4.2).
	VerdictRedirectSYNConn
	// VerdictRedirectSYNTransit: a SYN matched the TransitTable during
	// step 2 of an update — a suspected bloom false positive (§4.3).
	VerdictRedirectSYNTransit
	// VerdictNoBackend: the selected DIP pool version holds no backends, so
	// the packet is dropped rather than forwarded to a zero-valued address.
	VerdictNoBackend
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictNoVIP:
		return "no-vip"
	case VerdictMeterDrop:
		return "meter-drop"
	case VerdictRedirectSYNConn:
		return "redirect-syn-conntable"
	case VerdictRedirectSYNTransit:
		return "redirect-syn-transittable"
	case VerdictNoBackend:
		return "no-backend"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Result reports what the pipeline did with a packet.
type Result struct {
	Verdict    Verdict
	DIP        DIP    // meaningful when Verdict is VerdictForward or a redirect
	Version    uint32 // DIP pool version used
	ConnHit    bool   // served from ConnTable
	TransitHit bool   // bloom said "pending"
	Learned    bool   // generated a learn event
	ConnHandle cuckoo.Handle
	KeyHash    uint64
	Digest     uint32
	Metered    bool           // the VIP's meter saw this packet
	Meter      regarray.Color // its color (valid only when Metered)
}

// Stats are the data plane's hardware counters.
type Stats struct {
	Packets             uint64
	NoVIP               uint64
	NoBackend           uint64 // drops because the pool version was empty
	MeterDrops          uint64
	ConnHits            uint64
	ConnMisses          uint64
	TransitChecks       uint64
	TransitHits         uint64
	TransitInserts      uint64
	SYNRedirectConn     uint64
	SYNRedirectTransit  uint64
	LearnOffers         uint64
	ForwardedOldVersion uint64 // packets pinned to an old pool by TransitTable
	DegradedPackets     uint64 // miss-path packets served stateless in degraded mode
	DegradedTransitions uint64 // watermark crossings, both directions
}

// Add accumulates o into s — the per-pipe to chip-level aggregation used by
// the multi-pipe engine.
func (s *Stats) Add(o Stats) {
	s.Packets += o.Packets
	s.NoVIP += o.NoVIP
	s.NoBackend += o.NoBackend
	s.MeterDrops += o.MeterDrops
	s.ConnHits += o.ConnHits
	s.ConnMisses += o.ConnMisses
	s.TransitChecks += o.TransitChecks
	s.TransitHits += o.TransitHits
	s.TransitInserts += o.TransitInserts
	s.SYNRedirectConn += o.SYNRedirectConn
	s.SYNRedirectTransit += o.SYNRedirectTransit
	s.LearnOffers += o.LearnOffers
	s.ForwardedOldVersion += o.ForwardedOldVersion
	s.DegradedPackets += o.DegradedPackets
	s.DegradedTransitions += o.DegradedTransitions
}

// vipState is the hardware state for one VIP: its VIPTable row, update
// flags, meter, and DIPPoolTable rows.
type vipState struct {
	vip       VIP
	curVer    uint32
	oldVer    uint32
	inUpdate  bool // step 2: misses consult TransitTable
	recording bool // step 1: misses are inserted into TransitTable
	pools     map[uint32][]DIP
	meter     *regarray.Meter      // nil = unmetered
	tel       *telemetry.VIPSeries // nil when untraced

	// rowVer/rowValid/row memoize the last pools[ver] lookup: nearly every
	// packet resolves the current version, so the packet path pays one
	// comparison instead of a map access. The DIPPoolTable mutators
	// (WritePool, DeletePool) invalidate the cache.
	rowVer   uint32
	rowValid bool
	row      []DIP
}

// Switch is one SilkRoad data plane instance on a chip.
type Switch struct {
	cfg     Config
	chip    *asic.Chip
	conn    *cuckoo.Table
	transit *bloom.Filter
	learn   *learnfilter.Filter
	vips    map[VIP]*vipState
	// lastVS memoizes the previous packet's VIPTable resolution. Hashing
	// the VIP struct key dominates the map access cost, and consecutive
	// packets overwhelmingly hit the same VIP, so the packet path pays a
	// struct comparison instead. RemoveVIP invalidates the cache (install
	// cannot alias: a cached pointer always belongs to a still-live VIP).
	lastVS *vipState

	connSeed   uint64 // key hashing
	digestSeed uint64
	dipSeed    uint64 // DIP selection within a pool

	tracer telemetry.Tracer // nil = untraced
	pipe   int

	// Degraded mode (occupancy watermarks): degHigh/degLow are the
	// configured fractions converted to entry counts against the table's
	// effective capacity; degHigh == 0 means the mode is disabled.
	degraded        bool
	degHigh, degLow int

	stats Stats
}

// New builds a switch, allocating its tables on the chip and accounting
// their hardware resources.
func New(cfg Config) (*Switch, error) {
	if cfg.ConnTableEntries <= 0 {
		return nil, errors.New("dataplane: ConnTableEntries must be positive")
	}
	if cfg.VersionBits <= 0 || cfg.VersionBits > 16 {
		return nil, errors.New("dataplane: VersionBits must be in 1..16")
	}
	if cfg.DegradedHighWatermark != 0 || cfg.DegradedLowWatermark != 0 {
		if cfg.DegradedHighWatermark <= 0 || cfg.DegradedHighWatermark > 1 ||
			cfg.DegradedLowWatermark <= 0 || cfg.DegradedLowWatermark >= cfg.DegradedHighWatermark {
			return nil, errors.New("dataplane: degraded watermarks must satisfy 0 < low < high <= 1")
		}
	}
	chip := asic.NewChip(cfg.Chip)
	tcfg := cuckoo.DefaultConfig(cfg.ConnTableEntries)
	tcfg.DigestBits = cfg.DigestBits
	tcfg.ValueBits = cfg.VersionBits
	tcfg.Seed = cfg.Seed ^ 0xc077
	// The widths arrive from configuration: a digest and version that do not
	// fit the table's entry word are the caller's error, not a panic in
	// cuckoo.New.
	if err := tcfg.CheckWidths(); err != nil {
		return nil, fmt.Errorf("dataplane: DigestBits/VersionBits: %w", err)
	}
	// IPv6 worst case key width feeds the crossbar.
	conn, err := chip.AllocExactMatch("ConnTable", tcfg, 37*8)
	if err != nil {
		return nil, fmt.Errorf("dataplane: ConnTable: %w", err)
	}
	var transit *bloom.Filter
	if !cfg.DisableTransit {
		transit, err = chip.AllocBloom("TransitTable", cfg.TransitTableBytes, cfg.TransitTableHashes, cfg.Seed^0x7a51)
		if err != nil {
			return nil, fmt.Errorf("dataplane: TransitTable: %w", err)
		}
	}
	learn, err := chip.AllocLearnFilter(cfg.LearnFilterCapacity, cfg.LearnFilterTimeout)
	if err != nil {
		return nil, fmt.Errorf("dataplane: learning filter: %w", err)
	}
	if cfg.Tracer != nil {
		learn.SetTracer(cfg.Tracer, cfg.Pipe)
	}
	sw := &Switch{
		cfg:        cfg,
		chip:       chip,
		conn:       conn,
		transit:    transit,
		learn:      learn,
		vips:       make(map[VIP]*vipState),
		connSeed:   cfg.Seed ^ 0x5eed_c0_11,
		digestSeed: cfg.Seed ^ 0xd16e_57,
		dipSeed:    cfg.Seed ^ 0xd1_90_01,
		tracer:     cfg.Tracer,
		pipe:       cfg.Pipe,
	}
	sw.refreshWatermarks()
	return sw, nil
}

// refreshWatermarks recomputes the degraded-mode entry thresholds from the
// configured fractions and ConnTable's current effective capacity (which
// an injected occupancy limit can shrink).
func (s *Switch) refreshWatermarks() {
	if s.cfg.DegradedHighWatermark <= 0 {
		s.degHigh, s.degLow = 0, 0
		return
	}
	capa := float64(s.conn.EffectiveCapacity())
	s.degHigh = int(s.cfg.DegradedHighWatermark * capa)
	if s.degHigh < 1 {
		s.degHigh = 1
	}
	s.degLow = int(s.cfg.DegradedLowWatermark * capa)
	if s.degLow >= s.degHigh {
		s.degLow = s.degHigh - 1
	}
}

// evalDegraded applies the watermark hysteresis against the current
// ConnTable occupancy and reports whether the switch is degraded. Called
// on the miss path before learning; transitions count in Stats and emit
// a KindDegraded event.
func (s *Switch) evalDegraded(now simtime.Time) bool {
	if s.degHigh <= 0 {
		return false
	}
	n := s.conn.Len()
	switch {
	case !s.degraded && n >= s.degHigh:
		s.setDegraded(now, true, n)
	case s.degraded && n < s.degLow:
		s.setDegraded(now, false, n)
	}
	return s.degraded
}

func (s *Switch) setDegraded(now simtime.Time, to bool, entries int) {
	s.degraded = to
	s.stats.DegradedTransitions++
	if s.tracer != nil {
		s.tracer.Trace(telemetry.Event{
			Kind:      telemetry.KindDegraded,
			Now:       now,
			Pipe:      s.pipe,
			Degraded:  to,
			Len:       entries,
			Effective: s.conn.EffectiveCapacity(),
		})
	}
}

// Degraded reports whether the switch is currently in degraded mode. The
// flag is evaluated on the miss path, so it reflects the state as of the
// last learned-or-skipped packet.
func (s *Switch) Degraded() bool { return s.degraded }

// OccupancyInfo returns ConnTable's entry count and effective capacity
// (the watermark base).
func (s *Switch) OccupancyInfo() (entries, capacity int) {
	return s.conn.Len(), s.conn.EffectiveCapacity()
}

// SetConnTableLimit injects an artificial ConnTable entry cap (SRAM
// pressure; 0 removes it) and recomputes the degraded-mode watermarks
// against the shrunken capacity. Fault-injection hook.
func (s *Switch) SetConnTableLimit(limit int) {
	s.conn.SetOccupancyLimit(limit)
	s.refreshWatermarks()
}

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Chip exposes the hosting chip (for resource reports).
func (s *Switch) Chip() *asic.Chip { return s.chip }

// ConnTable exposes the connection table (read-mostly; the control plane
// mutates it through InsertConn/DeleteConn).
func (s *Switch) ConnTable() *cuckoo.Table { return s.conn }

// LearnFilter exposes the learning filter for the control plane to drain.
func (s *Switch) LearnFilter() *learnfilter.Filter { return s.learn }

// Stats returns a copy of the hardware counters.
func (s *Switch) Stats() Stats { return s.stats }

// Tracer returns the telemetry tracer this switch reports to (nil when
// untraced). The control plane reads it so both planes share one sink.
func (s *Switch) Tracer() telemetry.Tracer { return s.tracer }

// PipeIndex returns the pipeline index labelling this switch's telemetry.
func (s *Switch) PipeIndex() int { return s.pipe }

// VIPTelemetry returns the telemetry series of an installed VIP (nil when
// the VIP is unknown or the switch is untraced).
func (s *Switch) VIPTelemetry(vip VIP) *telemetry.VIPSeries {
	if vs, ok := s.vips[vip]; ok {
		return vs.tel
	}
	return nil
}

// ConnHashes returns the connection's key hash (table addressing, bloom
// membership, DIP selection) and its digest (the ConnTable match field) in
// one pass over the tuple's lanes. They equal hashing.Hash64 and
// hashing.Digest over the tuple's KeyBytes under the switch's seeds. Every
// tuple-keyed path (packet processing, CPU inserts and deletes, SYN
// arbitration) funnels through this method or through the Result.KeyHash
// and Result.Digest values it produced.
func (s *Switch) ConnHashes(t netproto.FiveTuple) (uint64, uint32) {
	var buf [5]uint64
	return hashing.HashDigestLanes(s.connSeed, s.digestSeed, s.cfg.DigestBits, t.Lanes(&buf))
}

// KeyHash returns the connection key hash of ConnHashes alone.
func (s *Switch) KeyHash(t netproto.FiveTuple) uint64 {
	return netproto.TupleHash(s.connSeed, &t)
}

// ConnDigest returns the connection digest of ConnHashes alone.
func (s *Switch) ConnDigest(t netproto.FiveTuple) uint32 {
	_, digest := s.ConnHashes(t)
	return digest
}

// ProcessFrame is ProcessFrameInto returning the forwarding decision.
func (s *Switch) ProcessFrame(now simtime.Time, f *netproto.Frame) Result {
	var res Result
	s.ProcessFrameInto(now, f, &res)
	return res
}

// ProcessFrameInto is the pipeline's one entry (Figure 10): it runs the
// pipeline body on the frame's single-parse fields, writes the decision
// into *res in place — the Result struct is wide enough that a
// value-returning call chain costs a measurable fraction of the per-packet
// budget — and emits the telemetry event. It never blocks and performs no
// CPU-side work; it may enqueue a learn event or redirect a SYN to the CPU,
// whose handling is the control plane's (ctrlplane.ControlPlane's
// ProcessFrameInto wraps both). The meter charges f.WireLen(): the bytes that
// arrived for a parsed frame, the canonical framing for a synthetic one,
// which the event's Wire flag tells apart.
func (s *Switch) ProcessFrameInto(now simtime.Time, f *netproto.Frame, res *Result) {
	wireLen := f.WireLen()
	vs := s.process(now, &f.Tuple, f.TCPFlags, wireLen, res)
	if s.tracer != nil {
		s.traceFrame(now, f, wireLen, vs, res)
	}
}

// traceFrame emits the frame's verdict event, preceded by a meter-drop
// event when the meter dropped it. It is a call of its own so the events'
// stack space stays out of ProcessFrameInto's frame on the untraced path.
func (s *Switch) traceFrame(now simtime.Time, f *netproto.Frame, wireLen int, vs *vipState, res *Result) {
	var tel *telemetry.VIPSeries
	if vs != nil {
		tel = vs.tel
	}
	if res.Verdict == VerdictMeterDrop {
		s.tracer.Trace(telemetry.Event{
			Kind: telemetry.KindMeterDrop, Now: now, Pipe: s.pipe, VIP: tel, WireLen: wireLen,
		})
	}
	stage := -1
	if res.ConnHit {
		stage = res.ConnHandle.Stage
	}
	meter := telemetry.MeterNone
	if res.Metered {
		meter = telemetry.MeterColor(res.Meter)
	}
	s.tracer.Trace(telemetry.Event{
		Kind:       telemetry.KindVerdict,
		Now:        now,
		Pipe:       s.pipe,
		VIP:        tel,
		Verdict:    telemetry.Verdict(res.Verdict),
		WireLen:    wireLen,
		Wire:       f.Data != nil,
		ConnHit:    res.ConnHit,
		Learned:    res.Learned,
		Tuple:      f.Tuple,
		KeyHash:    res.KeyHash,
		Digest:     res.Digest,
		Version:    res.Version,
		DIP:        res.DIP,
		Stage:      stage,
		TransitHit: res.TransitHit,
		Meter:      meter,
	})
}

// isSYN reports a bare SYN (connection-opening) flag set.
func isSYN(tcpFlags uint8) bool {
	return tcpFlags&netproto.FlagSYN != 0 && tcpFlags&netproto.FlagACK == 0
}

// process is the pipeline body, writing the forwarding decision into *res
// (whose previous contents are overwritten). It returns the matched VIP
// state so the tracing wrapper can label the event without a second map
// lookup.
func (s *Switch) process(now simtime.Time, tuple *netproto.FiveTuple, tcpFlags uint8, wireLen int, res *Result) *vipState {
	s.stats.Packets++
	vip := VIPOf(*tuple)
	vs := s.lastVS
	if vs == nil || vs.vip != vip {
		var ok bool
		vs, ok = s.vips[vip]
		if !ok {
			s.stats.NoVIP++
			*res = Result{Verdict: VerdictNoVIP}
			return nil
		}
		s.lastVS = vs
	}
	var meterColor regarray.Color
	metered := vs.meter != nil
	if metered {
		meterColor = vs.meter.Mark(now, wireLen)
		if meterColor == regarray.Red {
			s.stats.MeterDrops++
			*res = Result{Verdict: VerdictMeterDrop, Metered: true, Meter: meterColor}
			return vs
		}
	}
	keyHash, digest := s.ConnHashes(*tuple)
	*res = Result{KeyHash: keyHash, Digest: digest, Metered: metered, Meter: meterColor}

	if ver, h, hit := s.conn.Lookup(keyHash, digest); hit {
		s.stats.ConnHits++
		res.ConnHit = true
		res.Version = ver
		res.ConnHandle = h
		res.DIP = s.selectDIP(vs, ver, keyHash)
		if !res.DIP.IsValid() {
			// The pinned version's pool is empty: nothing to forward to,
			// SYN or not — drop instead of emitting a zero destination.
			s.stats.NoBackend++
			res.Verdict = VerdictNoBackend
			return vs
		}
		if isSYN(tcpFlags) {
			// A connection-opening packet should miss; a hit suggests a
			// digest false positive (or a retransmitted SYN of a pending
			// connection). The CPU arbitrates using its 5-tuple shadow.
			s.stats.SYNRedirectConn++
			res.Verdict = VerdictRedirectSYNConn
			return vs
		}
		res.Verdict = VerdictForward
		return vs
	}
	s.stats.ConnMisses++

	// ConnTable miss: VIPTable decides the version.
	ver := vs.curVer
	if vs.inUpdate && s.transit != nil {
		s.stats.TransitChecks++
		if s.transit.MaybeContains(keyHash) {
			s.stats.TransitHits++
			res.TransitHit = true
			ver = vs.oldVer
			s.stats.ForwardedOldVersion++
			if isSYN(tcpFlags) {
				// A new connection cannot be pending; suspected bloom
				// false positive — CPU arbitrates (§4.3).
				s.stats.SYNRedirectTransit++
				res.Version = ver
				res.DIP = s.selectDIP(vs, ver, keyHash)
				if !res.DIP.IsValid() {
					s.stats.NoBackend++
					res.Verdict = VerdictNoBackend
					return vs
				}
				res.Verdict = VerdictRedirectSYNTransit
				return vs
			}
		}
	}
	if vs.recording && s.transit != nil {
		// Step 1: remember every pending connection of this VIP.
		s.transit.Insert(keyHash)
		s.stats.TransitInserts++
	}
	res.Version = ver
	res.DIP = s.selectDIP(vs, ver, keyHash)
	if !res.DIP.IsValid() {
		// Empty pool version: drop, and do not learn — installing ConnTable
		// state for an unroutable connection would only waste SRAM.
		s.stats.NoBackend++
		res.Verdict = VerdictNoBackend
		return vs
	}
	// Degraded mode: past the high watermark the switch stops learning —
	// the flow is served stateless by the per-version hash above, which
	// stays stable while the version's pool does. Hysteresis returns to
	// stateful service below the low watermark.
	if s.evalDegraded(now) {
		s.stats.DegradedPackets++
		res.Verdict = VerdictForward
		return vs
	}
	// Trigger learning: the CPU will install keyHash -> ver.
	if s.learn.Offer(learnfilter.Event{
		Tuple:   *tuple,
		KeyHash: keyHash,
		Digest:  digest,
		Version: ver,
		At:      now,
	}) {
		res.Learned = true
		s.stats.LearnOffers++
	}
	res.Verdict = VerdictForward
	return vs
}

// selectDIP picks the DIP for a connection within a fixed pool version by
// hashing the connection key over the pool (the per-version hash the paper
// relies on: a pool never changes once created, so the choice is stable).
func (s *Switch) selectDIP(vs *vipState, ver uint32, keyHash uint64) DIP {
	if !vs.rowValid || vs.rowVer != ver {
		// A missing version caches the zero row, matching the uncached
		// lookup's "no backend" result until the version is written (which
		// invalidates the cache).
		vs.row = vs.pools[ver]
		vs.rowVer, vs.rowValid = ver, true
	}
	row := vs.row
	if len(row) == 0 {
		return DIP{}
	}
	return row[hashing.HashUint64(s.dipSeed, keyHash)%uint64(len(row))]
}

// SelectDIP is the exported form used by the control plane when resolving
// redirected SYNs.
func (s *Switch) SelectDIP(vip VIP, ver uint32, t netproto.FiveTuple) (DIP, error) {
	vs, ok := s.vips[vip]
	if !ok {
		return DIP{}, fmt.Errorf("dataplane: unknown VIP %v", vip)
	}
	if _, ok := vs.pools[ver]; !ok {
		return DIP{}, fmt.Errorf("dataplane: VIP %v has no pool version %d", vip, ver)
	}
	return s.selectDIP(vs, ver, s.KeyHash(t)), nil
}
