// Package silkroad is a faithful reimplementation of SilkRoad (Miao et al.,
// SIGCOMM 2017): a stateful layer-4 load balancer that runs entirely in a
// switching ASIC, keeping per-connection state in on-chip SRAM and
// guaranteeing per-connection consistency (PCC) across DIP pool updates.
//
// The package wraps the two halves of the system — the hardware data plane
// (internal/dataplane: ConnTable, VIPTable, DIPPoolTable, TransitTable,
// learning filter on a modeled ASIC) and the switch software
// (internal/ctrlplane: cuckoo insertions, the 3-step PCC update, version
// management) — behind one Switch type driven by explicit virtual time:
//
//	sw, _ := silkroad.NewSwitch(silkroad.Defaults(1_000_000))
//	vip := silkroad.NewVIP("20.0.0.1", 80, silkroad.TCP)
//	sw.AddVIP(0, vip, silkroad.Pool("10.0.0.1:20", "10.0.0.2:20"))
//	dip, _ := sw.Forward(now, rawPacket)           // full packet path
//	sw.RemoveDIP(now, vip, silkroad.AddrPort("10.0.0.2:20")) // PCC update
//
// The switch is driven through one event runtime (internal/sched) with two
// interchangeable drivers. Under virtual time, callers pass simtime-style
// timestamps (nanoseconds) and call AdvanceTo explicitly, which makes
// behaviour reproducible down to the event sequence — the flow-level
// simulator and the benchmark harness run this way. Under the wall-clock
// driver, Switch.Run(ctx) maps the same timeline onto monotonic real time
// and executes all timed work autonomously — the real-socket demo in
// cmd/silkroadd runs this way, with no AdvanceTo calls at all.
package silkroad

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"unsafe"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/flightrec"
	"repro/internal/health"
	"repro/internal/intent"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// Sentinel errors returned (wrapped with context) by the packet-path
// methods; match them with errors.Is.
var (
	// ErrUndecodable: the raw bytes are not a parseable IPv4/IPv6 packet,
	// or, for ForwardIPIP, not an IPv4 one.
	ErrUndecodable = errors.New("undecodable packet")
	// ErrNotVIP: the packet's destination is not a registered VIP.
	ErrNotVIP = errors.New("destination is not a VIP")
	// ErrMeterDrop: the VIP's meter marked the packet red (§6 isolation).
	ErrMeterDrop = errors.New("dropped by VIP meter")
	// ErrNoBackend: the selected DIP pool version holds no backends.
	ErrNoBackend = errors.New("no backend available")
)

// Re-exported core types. VIP identifies a service; DIP is a backend
// address; FiveTuple identifies a connection.
type (
	// VIP is a virtual IP service endpoint (address, port, protocol).
	VIP = dataplane.VIP
	// DIP is a direct (backend) address.
	DIP = dataplane.DIP
	// FiveTuple identifies a transport connection.
	FiveTuple = netproto.FiveTuple
	// Packet is a decoded L3/L4 packet: a builder for wire bytes (Marshal) and
	// for synthetic frames (Packet.Frame).
	Packet = netproto.Packet
	// Frame is the parse-once view of a raw packet: the wire bytes plus the
	// header offsets and five-tuple extracted in a single pass. It is the
	// currency of the wire-native packet path (ProcessFramesInto, the tunnel);
	// fill one with ParseFrame.
	Frame = netproto.Frame
	// Time is virtual time in nanoseconds.
	Time = simtime.Time
	// Duration is a span of virtual time in nanoseconds.
	Duration = simtime.Duration
	// Result reports the pipeline's decision for one packet.
	Result = dataplane.Result
	// Telemetry is the default metrics registry: attach one via
	// Config.Telemetry, scrape it with Snapshot or WritePrometheus.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of every instrument.
	TelemetrySnapshot = telemetry.Snapshot
	// PipeStats is one pipe's counters as reported by Switch.PerPipe.
	PipeStats = pipes.PipeStats
	// FlightRecorder captures per-packet traces and a control-plane event
	// journal in fixed-size rings; attach one via Config.FlightRecorder.
	FlightRecorder = flightrec.Recorder
	// FlightRecorderConfig sizes a flight recorder's rings and sampling.
	FlightRecorderConfig = flightrec.Config
	// Flow is an armed flow filter returned by Switch.Trace.
	Flow = flightrec.Flow
	// PacketRecord is one INT-style per-packet trace record.
	PacketRecord = flightrec.PacketRecord
	// JournalRecord is one control-plane journal entry.
	JournalRecord = flightrec.JournalRecord
	// FaultPlan is a deterministic fault schedule; attach one via
	// Config.Faults.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault in a FaultPlan.
	FaultEvent = faults.Event
	// FaultKind identifies a fault class (FaultDIPDown, FaultCPUStall, ...).
	FaultKind = faults.Kind
	// FaultGenConfig parameterizes GenerateFaults.
	FaultGenConfig = faults.GenConfig
	// FaultInjector executes the attached FaultPlan on the switch runtime;
	// Switch.Faults returns it.
	FaultInjector = faults.Injector
	// HealthConfig parameterizes Switch.NewHealthChecker; start from
	// HealthDefaults (the paper's §7 operating point).
	HealthConfig = health.Config
	// HealthChecker is the BFD-style prober returned by NewHealthChecker.
	HealthChecker = health.Checker
	// HealthProbe reports whether a DIP answered a probe sent at now;
	// FaultInjector.WrapProbe layers injected outages over one.
	HealthProbe = health.ProbeFunc
	// SLOConfig parameterizes the SLO evaluator attached via Config.SLO:
	// evaluation interval, burn-rate windows and the alert policy.
	SLOConfig = slo.Config
	// SLOEvaluator is the periodic SLO engine; Switch.SLO returns it.
	SLOEvaluator = slo.Evaluator
	// SLOReport is the evaluator's published SLI/forecast/alert state.
	SLOReport = slo.Report
	// SLORule is one burn-rate alert policy entry.
	SLORule = slo.Rule
	// SLOSignals are the chip-wide SLIs derived over one window.
	SLOSignals = slo.Signals
	// SLOPipeForecast is the occupancy forecaster's per-pipe output.
	SLOPipeForecast = slo.PipeForecast
	// SLOVIPIndicators is one VIP's per-window SLI row.
	SLOVIPIndicators = slo.VIPSLI
	// AlertStatus is one alert's externally visible state.
	AlertStatus = slo.AlertStatus
	// AlertTransition is one alert state-machine edge, with its flightrec
	// journal cursor exemplar.
	AlertTransition = slo.Transition
	// FleetSLOReport is the cluster roll-up of per-member SLO reports.
	FleetSLOReport = slo.FleetReport
)

// Alert severities, re-exported for policy construction.
const (
	SeverityTicket = slo.SeverityTicket
	SeverityPage   = slo.SeverityPage
)

// DefaultSLORules returns the stock alert policy (insert pressure, pending
// p99, digest aliasing, degraded exposure, forecast exhaustion).
func DefaultSLORules() []SLORule { return slo.DefaultRules() }

// Fault kinds, re-exported for plan construction.
const (
	FaultDIPDown    = faults.DIPDown
	FaultDIPUp      = faults.DIPUp
	FaultCPUStall   = faults.CPUStall
	FaultCPUSlow    = faults.CPUSlow
	FaultTableLimit = faults.TableLimit
	FaultDigestLoss = faults.DigestLoss
)

// GenerateFaults builds a seeded fault schedule: same config, same plan.
func GenerateFaults(cfg FaultGenConfig) FaultPlan { return faults.Generate(cfg) }

// HealthDefaults returns the paper's §7 health-checking operating point
// (10 s probe interval, BFD-style 3-miss failover, 100 B probes).
func HealthDefaults() HealthConfig { return health.DefaultConfig() }

// NewTelemetry creates a metrics registry ready to attach to a switch via
// Config.Telemetry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewFlightRecorder creates a flight recorder ready to attach via
// Config.FlightRecorder. The zero config uses the default ring sizes
// (4096 packet records, 8192 journal records) with sampling off.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return flightrec.New(cfg)
}

// ErrNoRecorder: the switch was built without a flight recorder.
var ErrNoRecorder = errors.New("no flight recorder attached")

// WritePrometheus renders a telemetry snapshot in Prometheus text
// exposition format.
func WritePrometheus(w io.Writer, s TelemetrySnapshot) error {
	return telemetry.WritePrometheus(w, s)
}

// Transport protocols.
const (
	TCP = netproto.ProtoTCP
	UDP = netproto.ProtoUDP
)

// TCP flag bits for Packet.TCPFlags.
const (
	FlagFIN = netproto.FlagFIN
	FlagSYN = netproto.FlagSYN
	FlagRST = netproto.FlagRST
	FlagACK = netproto.FlagACK
)

// Verdict classifies the outcome of processing one packet; see
// Result.Verdict.
type Verdict = dataplane.Verdict

// Verdicts.
const (
	// VerdictForward: the packet was forwarded to Result.DIP.
	VerdictForward = dataplane.VerdictForward
	// VerdictNoVIP: destination is not a registered VIP.
	VerdictNoVIP = dataplane.VerdictNoVIP
	// VerdictMeterDrop: the VIP's meter marked the packet red.
	VerdictMeterDrop = dataplane.VerdictMeterDrop
	// VerdictNoBackend: the selected DIP pool version holds no backends.
	VerdictNoBackend = dataplane.VerdictNoBackend
)

// Common durations.
const (
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
)

// ParseFrame parses a raw IPv4/IPv6 packet into f in one pass. f.Data
// aliases data; the frame is valid only while those bytes are. It accepts
// IPv4 and IPv6 carrying TCP or UDP; a truncated header, another IP
// version or another transport is an error.
func ParseFrame(data []byte, f *Frame) error { return netproto.ParseFrame(data, f) }

// NewVIP builds a VIP from a textual address. It panics on a malformed
// address (intended for literals; parse inputs with netip directly).
func NewVIP(addr string, port uint16, proto netproto.Proto) VIP {
	return VIP{Addr: netip.MustParseAddr(addr), Port: port, Proto: proto}
}

// AddrPort parses a "host:port" backend address, panicking on malformed
// input (intended for literals).
func AddrPort(s string) DIP { return netip.MustParseAddrPort(s) }

// Pool builds a DIP pool from "host:port" literals.
func Pool(addrs ...string) []DIP {
	out := make([]DIP, len(addrs))
	for i, a := range addrs {
		out[i] = AddrPort(a)
	}
	return out
}

// Config bundles the data-plane and control-plane configuration.
type Config struct {
	Dataplane    dataplane.Config
	Controlplane ctrlplane.Config
	// Pipes is the number of independent forwarding pipelines the chip runs
	// (Tofino-class ASICs forward through 2-4 pipes, each with its own
	// stages and SRAM share). Zero or one builds a one-pipe engine, whose
	// pipe is Dataplane exactly as written — the caller's Seed and hash
	// scheme. With more pipes, traffic is sharded by 5-tuple hash so each
	// connection is pinned to one pipe's ConnTable, the chip SRAM budget and
	// ConnTable sizing target divide evenly across pipes, seeds are
	// diversified per pipe, and Stats reports chip-level aggregates.
	Pipes int
	// Telemetry, when non-nil, attaches a metrics registry: the data plane,
	// control plane and learning filter of every pipe report their events
	// into it, and Switch.Telemetry exposes it for scraping. Nil keeps the
	// hot path telemetry-free (one branch per event site).
	Telemetry *Telemetry
	// FlightRecorder, when non-nil, attaches a flight recorder: per-packet
	// trace rings for armed/sampled flows and a control-plane event journal.
	// It wraps Telemetry (when both are set) so the data plane still sees a
	// single tracer, keeping the untraced hot path at one branch.
	FlightRecorder *FlightRecorder
	// Clock is the runtime's time source, read by Switch.Now and driven
	// against by Switch.Run. Nil installs a monotonic wall clock anchored
	// at NewSwitch; tests substitute NewManualClock.
	Clock Clock
	// Faults, when non-nil, attaches a fault injector executing the plan on
	// the switch runtime: DIP outages (via health probes wrapped with
	// Switch.Faults().WrapProbe), CPU stalls and brownouts, ConnTable
	// occupancy squeezes and learn-digest loss all fire at their scheduled
	// virtual times, deterministically. Nil keeps the switch fault-free.
	Faults *FaultPlan
	// SLO, when non-nil, attaches the SLO evaluator (internal/slo): a
	// periodic scheduler source that derives SLIs, occupancy forecasts and
	// burn-rate alerts from the telemetry registry. Requires Telemetry.
	// When a FlightRecorder is also attached and the config names no
	// Journal source, alert transitions capture its journal cursor as an
	// exemplar automatically.
	SLO *SLOConfig
}

// Defaults returns the paper's operating point for a switch provisioned
// for n concurrent connections: 16-bit digests, 6-bit versions, a 256-byte
// TransitTable, a 2048-entry learning filter with 1 ms timeout, and a
// 200K/s insertion CPU.
func Defaults(n int) Config {
	return Config{
		Dataplane:    dataplane.DefaultConfig(n),
		Controlplane: ctrlplane.DefaultConfig(),
	}
}

// Stats aggregates hardware and software counters.
type Stats struct {
	Dataplane    dataplane.Stats
	Controlplane ctrlplane.Metrics
	Connections  int // tracked by the switch software
	MemoryBytes  int // current SRAM consumption
}

// Switch is a SilkRoad load-balancing switch: a chip of one or more pipes —
// each an ASIC data plane plus its slice of the management-CPU software —
// advanced together in virtual time.
//
// Switch methods are safe for concurrent use: the engine locks per pipe,
// serializing calls to a pipe the way its pipeline and its slice of the
// switch CPU would, so packets of different pipes proceed in parallel and
// a one-pipe switch is fully serialized. (The inner internal/dataplane and
// internal/ctrlplane types are not independently thread-safe.)
type Switch struct {
	// eng is the chip: every packet and every table operation routes
	// through it, whatever the pipe count.
	eng *pipes.Engine

	// rt is the switch's event runtime (see runtime.go): the scheduler
	// behind Switch.Run, Every and registered health checkers.
	rt *eventRuntime

	tel *Telemetry      // nil when no registry is attached
	rec *FlightRecorder // nil when no flight recorder is attached
	inj *FaultInjector  // nil when no fault plan is attached
	slo *SLOEvaluator   // nil when no SLO config is attached

	// intent is the declarative desired-state store and its reconciler
	// (see intent.go): Apply converges whole specs, and the imperative
	// methods edit single keys of the same desired state.
	intent *intentState
}

// tracerFor composes the configured observability sinks into the single
// Tracer the data plane sees: the flight recorder wraps the registry when
// both are present. The nil return keeps the tracer==nil fast path — a nil
// *Telemetry boxed into the Tracer interface would defeat it.
func tracerFor(cfg Config) telemetry.Tracer {
	switch {
	case cfg.FlightRecorder != nil:
		if cfg.Telemetry != nil {
			cfg.FlightRecorder.SetInner(cfg.Telemetry)
		}
		return cfg.FlightRecorder
	case cfg.Telemetry != nil:
		return cfg.Telemetry
	default:
		return nil
	}
}

// NewSwitch builds a switch from cfg.
func NewSwitch(cfg Config) (*Switch, error) {
	if cfg.SLO != nil && cfg.Telemetry == nil {
		return nil, errors.New("silkroad: Config.SLO requires Config.Telemetry")
	}
	tracer := tracerFor(cfg)
	dcfg := cfg.Dataplane
	if tracer != nil {
		dcfg.Tracer = tracer
	}
	eng, err := pipes.New(pipes.Config{
		Pipes:        cfg.Pipes,
		Dataplane:    dcfg,
		Controlplane: cfg.Controlplane,
	})
	if err != nil {
		return nil, err
	}
	s := &Switch{eng: eng, tel: cfg.Telemetry, rec: cfg.FlightRecorder}
	s.rt = newRuntime(cfg.Clock, eng)
	s.attachIntent(tracer)
	s.attachFaults(cfg, tracer)
	s.attachSLO(cfg)
	return s, nil
}

// attachSLO builds the SLO evaluator for Config.SLO (if any) and registers
// it with the runtime, so evaluations fire in time order with all other
// scheduled work under both Run and AdvanceTo. The evaluator reads only
// the telemetry registry's atomic instruments — it never takes a pipe lock,
// so evaluation cannot contend with ProcessFramesInto.
func (s *Switch) attachSLO(cfg Config) {
	if cfg.SLO == nil {
		return
	}
	sc := *cfg.SLO
	if sc.Journal == nil && cfg.FlightRecorder != nil {
		sc.Journal = cfg.FlightRecorder.JournalSeq
	}
	if sc.MaxPipes == 0 && cfg.Pipes > 8 {
		sc.MaxPipes = cfg.Pipes
	}
	s.slo = slo.New(cfg.Telemetry, s.Now(), sc)
	s.rt.mu.Lock()
	s.rt.sched.AddSource(s.slo)
	s.rt.mu.Unlock()
}

// SLO returns the attached SLO evaluator, or nil when the switch was built
// without one.
func (s *Switch) SLO() *SLOEvaluator { return s.slo }

// attachIntent builds the desired-state reconciler over the switch's raw
// routing layer and registers its retry work with the runtime, so backoff
// deadlines fire in time order under both Run and AdvanceTo.
func (s *Switch) attachIntent(tracer telemetry.Tracer) {
	s.intent = &intentState{
		rec: intent.New(intentTarget{s: s}, intent.Config{Tracer: tracer}),
	}
	s.rt.mu.Lock()
	s.rt.sched.AddSource(intentSource{s.intent})
	s.rt.mu.Unlock()
}

// attachFaults builds the injector for Config.Faults (if any) and
// registers it with the switch runtime, so faults fire in time order with
// all other scheduled work under both Run and AdvanceTo.
func (s *Switch) attachFaults(cfg Config, tracer telemetry.Tracer) {
	if cfg.Faults == nil {
		return
	}
	inj := faults.NewInjector(*cfg.Faults, s.eng)
	if tracer != nil {
		inj.SetTracer(tracer)
	}
	s.inj = inj
	s.rt.mu.Lock()
	s.rt.sched.AddSource(inj)
	s.rt.mu.Unlock()
}

// Faults returns the attached fault injector, or nil when the switch was
// built without a fault plan.
func (s *Switch) Faults() *FaultInjector { return s.inj }

// PipeDegraded is one pipe's degraded-mode status.
type PipeDegraded struct {
	Pipe     int  `json:"pipe"`
	Degraded bool `json:"degraded"`
	Entries  int  `json:"entries"`  // current ConnTable occupancy
	Capacity int  `json:"capacity"` // effective ConnTable capacity
}

// DegradedState is the switch-wide degraded-mode summary: Degraded is
// true when any pipe is above its high watermark and serving new flows
// stateless (existing connections keep their ConnTable pins).
type DegradedState struct {
	Degraded bool           `json:"degraded"`
	Pipes    []PipeDegraded `json:"pipes"`
}

// DegradedState reports each pipe's degraded-mode status and ConnTable
// occupancy. cmd/silkroadd serves this from /readyz.
func (s *Switch) DegradedState() DegradedState {
	var st DegradedState
	for i := 0; i < s.Pipes(); i++ {
		s.eng.Inspect(i, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			entries, capacity := dp.OccupancyInfo()
			pd := PipeDegraded{Pipe: i, Degraded: dp.Degraded(), Entries: entries, Capacity: capacity}
			st.Pipes = append(st.Pipes, pd)
			if pd.Degraded {
				st.Degraded = true
			}
		})
	}
	return st
}

// Telemetry returns the attached metrics registry, or nil when the switch
// was built without one.
func (s *Switch) Telemetry() *Telemetry { return s.tel }

// FlightRecorder returns the attached flight recorder, or nil when the
// switch was built without one.
func (s *Switch) FlightRecorder() *FlightRecorder { return s.rec }

// Trace arms the flight recorder's flow filter for t and returns a handle
// whose Records method yields the connection's recorded pipeline path (one
// PacketRecord per packet, plus the CPU insertion that installed its
// ConnTable entry). Stop the handle to disarm. Fails with ErrNoRecorder if
// the switch has no flight recorder attached.
func (s *Switch) Trace(t FiveTuple) (*Flow, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("silkroad: %w", ErrNoRecorder)
	}
	return s.rec.Arm(t), nil
}

// Pipes returns the number of forwarding pipelines the switch runs.
func (s *Switch) Pipes() int { return s.eng.NumPipes() }

// Engine exposes the switch's engine — never nil; a single-pipe switch
// runs a one-pipe engine (advanced use: per-pipe inspection, shard
// mapping).
func (s *Switch) Engine() *pipes.Engine { return s.eng }

// Dataplane exposes the first pipe's data plane — on a single-pipe switch,
// the data plane (advanced use: resource reports, direct table
// inspection). Use Engine for the other pipes.
func (s *Switch) Dataplane() *dataplane.Switch { return s.eng.Dataplane(0) }

// Controlplane exposes the first pipe's slice of the switch software — on
// a single-pipe switch, all of it. Use Engine for the other pipes.
func (s *Switch) Controlplane() *ctrlplane.ControlPlane { return s.eng.Controlplane(0) }

// VIPOption configures one VIP at announcement time.
type VIPOption func(*vipOptions)

type vipOptions struct {
	meterBytesPerSec float64
}

// WithMeter attaches a hardware two-rate three-color meter with the given
// committed rate in bytes per second (§6 performance isolation). A rate of
// 0 leaves the VIP unmetered.
func WithMeter(bytesPerSec float64) VIPOption {
	return func(o *vipOptions) { o.meterBytesPerSec = bytesPerSec }
}

// AddVIP announces a VIP with an initial DIP pool. Options configure
// per-VIP hardware features, e.g. WithMeter for rate isolation.
//
// Like every imperative method, AddVIP is a single-key edit of the
// switch's desired state applied through the reconcile engine — the same
// path Switch.Apply drives for whole specs.
func (s *Switch) AddVIP(now Time, vip VIP, pool []DIP, opts ...VIPOption) error {
	var o vipOptions
	for _, opt := range opts {
		opt(&o)
	}
	return locked(&s.intent.mu, func() error { return s.intent.rec.EditAdd(now, vip, pool, o.meterBytesPerSec) })
}

// RemoveVIP withdraws a VIP.
func (s *Switch) RemoveVIP(now Time, vip VIP) error {
	return locked(&s.intent.mu, func() error { return s.intent.rec.EditRemove(now, vip) })
}

// AddDIP adds a backend to vip's pool with full per-connection
// consistency (the 3-step update of §4.3 runs under the hood).
func (s *Switch) AddDIP(now Time, vip VIP, dip DIP) error {
	return s.editPool(now, vip, func(pool []DIP) ([]DIP, error) {
		return append(pool, dip), nil
	})
}

// editPool edits vip's desired pool through fn and applies it.
func (s *Switch) editPool(now Time, vip VIP, fn func(pool []DIP) ([]DIP, error)) error {
	defer s.poke()
	return locked(&s.intent.mu, func() error { return s.intent.rec.EditPool(now, vip, fn) })
}

// RemoveDIP removes a backend from vip's pool with PCC.
func (s *Switch) RemoveDIP(now Time, vip VIP, dip DIP) error {
	return s.editPool(now, vip, func(pool []DIP) ([]DIP, error) {
		j := slices.Index(pool, dip)
		if j < 0 {
			return nil, fmt.Errorf("silkroad: DIP %v not in pool of %v", dip, vip)
		}
		return slices.Delete(pool, j, j+1), nil
	})
}

// UpdatePool replaces vip's pool wholesale with PCC. Updating to the pool
// the switch is already at (or already heading for) is a no-op: the
// reconcile engine diffs against the newest requested state and issues no
// hardware write.
func (s *Switch) UpdatePool(now Time, vip VIP, pool []DIP) error {
	return s.editPool(now, vip, func([]DIP) ([]DIP, error) {
		return append([]DIP(nil), pool...), nil
	})
}

// CurrentPool returns the pool new connections map to.
func (s *Switch) CurrentPool(vip VIP) ([]DIP, error) { return s.eng.CurrentPool(vip) }

// pokeForBatch wakes the runtime once if any result of a finished batch
// may have queued timed work with an earlier deadline than the runtime
// planned to wake for (a learn event's flush, a redirected SYN's CPU
// insertion). Pure ConnTable hits only push aging deadlines later, so they
// never need a driver wakeup — which keeps the steady-state packet path
// poke-free. One poke covers the whole batch, even when several pipes
// queued new deadlines: the engine returns only after every pipe's share
// has completed, so all that work is already scheduled when the scan below
// runs, and Poke merely makes the wall driver re-read NextEventTime — the
// minimum deadline across every pipe — rather than waking it for a
// specific pipe. Breaking on the first hit is therefore wake-loss-free.
func (s *Switch) pokeForBatch(results []Result) {
	for i := range results {
		if results[i].Learned || !results[i].ConnHit {
			s.poke()
			break
		}
	}
}

// ProcessFrame runs one frame through the switch as a batch of one
// (ProcessFramesInto): background CPU work due by now executes first, then
// the ASIC pipeline, then any CPU arbitration the pipeline requested
// (redirected SYNs). The verdict's DIP plus the frame's cached offsets are
// everything TX needs for an in-place rewrite or encap with zero re-decode.
// A caller holding a decoded Packet converts it at its edge with
// Packet.Frame.
func (s *Switch) ProcessFrame(now Time, f *Frame) Result {
	var res [1]Result
	s.ProcessFramesInto(now, unsafe.Slice(f, 1), res[:])
	return res[0]
}

// ProcessFramesInto runs a batch of frames through the switch, writing one
// Result per frame into a caller-provided slice (len(results) >=
// len(frames)); results[i] corresponds to frames[i]. It allocates nothing,
// so the socket RX loop reuses frame and result buffers across batches. On
// a multi-pipe switch the batch is sharded by connection and each pipe's
// share runs on the caller under that pipe's lock; on a single-pipe switch
// it runs in order under one lock acquisition. The pipeline reads the
// frames but never writes them; TX rewrites (Frame.RewriteDst, EncapIPIP)
// belong to the caller once the verdicts are back.
func (s *Switch) ProcessFramesInto(now Time, frames []Frame, results []Result) {
	s.eng.ProcessFramesInto(now, frames, results)
	s.pokeForBatch(results[:len(frames)])
}

// Close returns nil: a switch holds no goroutine or handle outside Run, and
// every batch runs on its caller, so there is nothing to release. It does
// not stop an active Run; cancel that context.
func (s *Switch) Close() error { return nil }

// verdictError maps a non-forwarding verdict to its wrapped sentinel, so
// Forward and ForwardIPIP agree on error semantics and callers can test
// with errors.Is.
func verdictError(res Result, t FiveTuple) error {
	switch res.Verdict {
	case dataplane.VerdictNoVIP:
		return fmt.Errorf("silkroad: %v: %w", dataplane.VIPOf(t), ErrNotVIP)
	case dataplane.VerdictMeterDrop:
		return fmt.Errorf("silkroad: %v: %w", dataplane.VIPOf(t), ErrMeterDrop)
	case dataplane.VerdictNoBackend:
		return fmt.Errorf("silkroad: %v: %w", dataplane.VIPOf(t), ErrNoBackend)
	default:
		return fmt.Errorf("silkroad: unresolved verdict %v", res.Verdict)
	}
}

// Forward processes a raw IPv4/IPv6 packet: decode, balance, rewrite the
// destination to the chosen DIP in place, and return that DIP. Failures
// wrap the package sentinels (ErrUndecodable, ErrNotVIP, ErrMeterDrop,
// ErrNoBackend); match them with errors.Is.
func (s *Switch) Forward(now Time, raw []byte) (DIP, error) {
	var f Frame
	if err := netproto.ParseFrame(raw, &f); err != nil {
		return DIP{}, fmt.Errorf("silkroad: %w: %v", ErrUndecodable, err)
	}
	res := s.ProcessFrame(now, &f)
	if res.Verdict != dataplane.VerdictForward {
		return DIP{}, verdictError(res, f.Tuple)
	}
	// The frame's cached offsets make the rewrite a pure in-place edit —
	// the one parse above is the only decode on this path.
	if err := f.RewriteDst(res.DIP); err != nil {
		return DIP{}, err
	}
	return res.DIP, nil
}

// ForwardIPIP processes a raw IPv4 packet and returns it encapsulated
// IP-in-IP toward the chosen DIP (Maglev-style forwarding with direct
// server return: the inner packet keeps the VIP destination, the DIP
// decapsulates). selfAddr is the outer source (this load balancer). An IPv6
// packet fails with ErrUndecodable before the pipeline sees it, so it is
// neither metered nor learned.
func (s *Switch) ForwardIPIP(now Time, raw []byte, selfAddr netip.Addr) ([]byte, DIP, error) {
	var f Frame
	if err := netproto.ParseFrame(raw, &f); err != nil {
		return nil, DIP{}, fmt.Errorf("silkroad: %w: %v", ErrUndecodable, err)
	}
	if !f.Tuple.Dst.Is4() {
		return nil, DIP{}, fmt.Errorf("silkroad: %w: IP-in-IP carries IPv4 only", ErrUndecodable)
	}
	res := s.ProcessFrame(now, &f)
	if res.Verdict != dataplane.VerdictForward {
		return nil, DIP{}, verdictError(res, f.Tuple)
	}
	enc, err := netproto.EncapIPIP(nil, selfAddr, res.DIP.Addr(), f.Data)
	if err != nil {
		return nil, DIP{}, err
	}
	return enc, res.DIP, nil
}

// EndConnection tells the switch a connection terminated, freeing its
// ConnTable entry and possibly retiring a pool version.
func (s *Switch) EndConnection(now Time, t FiveTuple) {
	defer s.poke()
	s.eng.EndConnection(now, t)
}

// NextEventTime returns when the switch's runtime next has work due: a
// pipe's learning-filter flush, CPU insertion, aging step or eligible
// update transition, a reconcile retry, a fault, an SLO evaluation, a
// health round or an Every task. A caller driving virtual time by hand
// steps AdvanceTo to it; the wall-clock driver sleeps on it.
func (s *Switch) NextEventTime() (Time, bool) {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.rt.sched.Next()
}

// Stats returns combined counters: every field is the chip-level aggregate
// over the pipes (sums; MaxInsertQueue is the per-pipe maximum).
func (s *Switch) Stats() Stats {
	agg := s.eng.Stats()
	return Stats{
		Dataplane:    agg.Dataplane,
		Controlplane: agg.Controlplane,
		Connections:  agg.Connections,
		MemoryBytes:  agg.MemoryBytes,
	}
}

// PerPipe returns each pipe's individual counters in pipe order. A
// single-pipe switch reports one entry, so callers inspect per-pipe state
// the same way regardless of the pipe count.
func (s *Switch) PerPipe() []PipeStats { return s.eng.PerPipe() }
