// Package slo is the judgment layer over the telemetry plane: a periodic
// evaluator (a sched.Source) that samples the atomic telemetry.Registry
// into a fixed ring of interval snapshots and derives service-level
// indicators from the deltas — new-flow rate, pending-window p99, insert
// pressure, digest-FP rate, degraded-mode exposure, and a PCC-risk proxy —
// plus an occupancy forecaster (time-to-exhaustion per pipe, the paper's
// §2.2 sizing question asked live) and a burn-rate alert engine with
// multi-window thresholds and hysteresis.
//
// Cost discipline matches the tracer's bar: when no Evaluator is attached
// nothing runs; when armed, each tick performs atomic loads into
// preallocated ring buffers — the packet path is never touched and no lock
// shared with ProcessFramesInto is ever taken (the registry readers are plain
// atomics plus the registry's registration mutex, which hot-path hooks do
// not use).
package slo

import (
	"math"
	"sync"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Metric names for the evaluator's own exposition instruments.
const (
	MetricEvals         = "silkroad_slo_evals_total"
	MetricAlertsPending = "silkroad_slo_alerts_pending"
	MetricAlertsFiring  = "silkroad_slo_alerts_firing"
	MetricMinTTE        = "silkroad_slo_min_tte_seconds"
)

// Config parameterizes an Evaluator. The zero value is usable: every field
// defaults sensibly in New.
type Config struct {
	// Interval is the evaluation period in virtual time (default 1s).
	Interval simtime.Duration
	// WindowSamples is the ring depth — the longest lookback any window
	// can use (default 64 samples).
	WindowSamples int
	// FastWindow and SlowWindow are the burn-rate windows, in samples
	// (defaults 5 and 30). The fast window detects, the slow window
	// confirms: an alert fires only when both breach.
	FastWindow int
	SlowWindow int
	// ForecastWindow is how many recent samples the occupancy fit uses
	// (default 30).
	ForecastWindow int
	// MaxPipes and MaxVIPs bound the preallocated per-sample buffers
	// (defaults 8 and 32). VIPs beyond the bound are not tracked
	// per-VIP (chip-wide SLIs still include them).
	MaxPipes int
	MaxVIPs  int
	// Rules is the alert policy; nil means DefaultRules().
	Rules []Rule
	// Journal, when set, supplies the flight-recorder journal cursor
	// captured on every alert transition as an exemplar: replaying the
	// journal up to the cursor reproduces the state that tripped it.
	Journal func() uint64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = simtime.Second
	}
	if c.WindowSamples <= 0 {
		c.WindowSamples = 64
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 30
	}
	if c.SlowWindow >= c.WindowSamples {
		c.SlowWindow = c.WindowSamples - 1
	}
	if c.FastWindow > c.SlowWindow {
		c.FastWindow = c.SlowWindow
	}
	if c.ForecastWindow <= 0 {
		c.ForecastWindow = 30
	}
	if c.ForecastWindow >= c.WindowSamples {
		c.ForecastWindow = c.WindowSamples - 1
	}
	if c.MaxPipes <= 0 {
		c.MaxPipes = 8
	}
	if c.MaxVIPs <= 0 {
		c.MaxVIPs = 32
	}
	if c.Rules == nil {
		c.Rules = DefaultRules()
	}
	return c
}

// Signals are the chip-wide SLIs derived from one window of interval
// deltas. All rates are per virtual second.
type Signals struct {
	// Seconds is the window's virtual width.
	Seconds float64 `json:"seconds"`
	// PPS is the packet rate summed over pipes.
	PPS float64 `json:"pps"`
	// NewFlowRate is learned ConnTable insertions per second.
	NewFlowRate float64 `json:"new_flow_rate"`
	// InsertPressure is retries+sheds+overflows per second — the rate at
	// which the insertion path is refusing or deferring work.
	InsertPressure float64 `json:"insert_pressure"`
	// PendingP99 is the p99 of the §4.2 pending window over this window's
	// learned insertions, in seconds (overflow capped at the top bound).
	PendingP99 float64 `json:"pending_p99_seconds"`
	// DigestFPRate is digest false positives per learned insertion.
	DigestFPRate float64 `json:"digest_fp_rate"`
	// DegradedFrac is the fraction of pipes currently degraded.
	DegradedFrac float64 `json:"degraded_fraction"`
	// ExhaustionRisk is horizon/TTE for the worst pipe (0 = no exhaustion
	// predicted, >=1 = predicted within the slow window's horizon).
	ExhaustionRisk float64 `json:"exhaustion_risk"`
	// PCCRisk is the fraction of new flows exposed to per-connection
	// consistency loss: flows shed/overflowed at insert (never pinned) or
	// arriving while pipes serve stateless in degraded mode.
	PCCRisk float64 `json:"pcc_risk"`
}

// VIPSLI is one VIP's per-window indicators.
type VIPSLI struct {
	VIP           string  `json:"vip"`
	PPS           float64 `json:"pps"`
	NewFlowRate   float64 `json:"new_flow_rate"`
	ConnHitRate   float64 `json:"conn_hit_rate"` // hits per packet
	NoBackendRate float64 `json:"no_backend_rate"`
	MeterDropRate float64 `json:"meter_drop_rate"`
}

// PipeForecast is the occupancy forecaster's output for one pipe.
type PipeForecast struct {
	Pipe     int     `json:"pipe"`
	Entries  int64   `json:"entries"`
	Capacity int64   `json:"capacity"`
	FillFrac float64 `json:"fill_fraction"`
	// SlopePerSec is the fitted entry growth rate (entries/second).
	SlopePerSec float64 `json:"slope_per_sec"`
	// TTESeconds is the predicted time to exhaustion, or -1 when the fit
	// predicts no exhaustion (flat or draining).
	TTESeconds float64 `json:"tte_seconds"`
	Degraded   bool    `json:"degraded,omitempty"`
}

// Report is the evaluator's published state after a tick: SLIs over the
// fast and slow windows, per-VIP indicators, per-pipe forecasts, and the
// alert board. The JSON shape is the /slo endpoint's contract and is
// byte-deterministic for a deterministic run.
type Report struct {
	Now   simtime.Time `json:"now_ns"`
	Evals uint64       `json:"evals"`
	Fast  Signals      `json:"fast"`
	Slow  Signals      `json:"slow"`
	// DegradedSeconds is cumulative virtual time integrated over the
	// degraded pipe fraction (2 pipes degraded for 3s of 4 = 1.5s).
	DegradedSeconds float64        `json:"degraded_seconds"`
	VIPs            []VIPSLI       `json:"vips,omitempty"`
	Pipes           []PipeForecast `json:"pipes,omitempty"`
	Alerts          []AlertStatus  `json:"alerts"`
}

// sample is one ring slot: a full allocation-free capture of the registry.
type sample struct {
	t      simtime.Time
	core   telemetry.CoreStats
	pend   telemetry.HistogramSnapshot
	pipes  []telemetry.PipeOccupancy
	npipes int
	vips   []telemetry.VIPSnapshot
	vipGen int // which key list the vips slice is indexed by
}

// Evaluator is the periodic SLO engine. Attach it to a scheduler as a
// Source; read it from any goroutine via Report/Alerts/History.
type Evaluator struct {
	cfg Config
	reg *telemetry.Registry

	next simtime.Time

	ring  []sample
	count int // samples captured (saturates at len(ring))
	head  int // index of the most recent sample

	vipKeys   []telemetry.VIPKey
	vipLabels []string
	vipGen    int

	alerts  []alert
	history []Transition

	// exposition instruments (registered on the same registry).
	mEvals   *telemetry.Counter
	mPending *telemetry.Gauge
	mFiring  *telemetry.Gauge
	mMinTTE  *telemetry.Gauge

	// rep is the published report, guarded by repMu: written by the tick
	// (scheduler goroutine), copied out by readers. Never contended with
	// the packet path.
	repMu   sync.Mutex
	rep     Report
	repVIPs []VIPSLI
	repPipe []PipeForecast
}

// New builds an evaluator over reg. The first evaluation is due one
// interval after start.
func New(reg *telemetry.Registry, start simtime.Time, cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	e := &Evaluator{
		cfg:  cfg,
		reg:  reg,
		next: start + simtime.Time(cfg.Interval),
		ring: make([]sample, cfg.WindowSamples),
	}
	for i := range e.ring {
		e.ring[i].pipes = make([]telemetry.PipeOccupancy, cfg.MaxPipes)
		e.ring[i].vips = make([]telemetry.VIPSnapshot, cfg.MaxVIPs)
	}
	e.alerts = make([]alert, len(cfg.Rules))
	for i, r := range cfg.Rules {
		e.alerts[i] = newAlert(r)
	}
	e.repVIPs = make([]VIPSLI, 0, cfg.MaxVIPs)
	e.repPipe = make([]PipeForecast, 0, cfg.MaxPipes)
	e.mEvals = reg.Counter(MetricEvals)
	e.mPending = reg.Gauge(MetricAlertsPending)
	e.mFiring = reg.Gauge(MetricAlertsFiring)
	e.mMinTTE = reg.Gauge(MetricMinTTE)
	e.mMinTTE.Set(-1)
	return e
}

// Interval returns the configured evaluation period.
func (e *Evaluator) Interval() simtime.Duration { return e.cfg.Interval }

// NextEventTime implements sched.Source.
func (e *Evaluator) NextEventTime() (simtime.Time, bool) { return e.next, true }

// Advance implements sched.Source: it runs every evaluation due at or
// before now.
func (e *Evaluator) Advance(now simtime.Time) {
	for e.next <= now {
		e.tick(e.next)
		e.next += simtime.Time(e.cfg.Interval)
	}
}

func (e *Evaluator) lock()   { e.repMu.Lock() }
func (e *Evaluator) unlock() { e.repMu.Unlock() }

// tick captures one sample and re-derives SLIs, forecasts and alerts.
func (e *Evaluator) tick(now simtime.Time) {
	e.capture(now)

	fast := e.window(e.cfg.FastWindow)
	slow := e.window(e.cfg.SlowWindow)

	e.lock()
	defer e.unlock()

	e.rep.Now = now
	e.rep.Evals++
	e.rep.DegradedSeconds += fast.lastDegradedFrac * e.cfg.Interval.Seconds()

	e.repPipe = e.forecast(e.repPipe[:0])
	minTTE := math.MaxFloat64
	for _, f := range e.repPipe {
		if f.TTESeconds >= 0 && f.TTESeconds < minTTE {
			minTTE = f.TTESeconds
		}
	}
	horizon := float64(e.cfg.SlowWindow) * e.cfg.Interval.Seconds()
	risk := 0.0
	if minTTE < math.MaxFloat64 {
		e.mMinTTE.Set(int64(minTTE))
		if minTTE > 0 {
			risk = horizon / minTTE
		} else {
			risk = horizon // exhausted now: saturate rather than divide by zero
		}
	} else {
		e.mMinTTE.Set(-1)
	}
	fast.sig.ExhaustionRisk = risk
	slow.sig.ExhaustionRisk = risk

	e.rep.Fast = fast.sig
	e.rep.Slow = slow.sig
	e.repVIPs = e.vipSLIs(e.repVIPs[:0], fast)
	e.rep.VIPs = e.repVIPs
	e.rep.Pipes = e.repPipe

	cursor := uint64(0)
	if e.cfg.Journal != nil {
		cursor = e.cfg.Journal()
	}
	pending, firing := 0, 0
	for i := range e.alerts {
		a := &e.alerts[i]
		a.eval(now, fast.sig, slow.sig, cursor, &e.history)
		switch a.state {
		case StatePending:
			pending++
		case StateFiring:
			firing++
		}
	}
	if e.rep.Alerts == nil {
		e.rep.Alerts = make([]AlertStatus, len(e.alerts))
	}
	for i := range e.alerts {
		e.rep.Alerts[i] = e.alerts[i].status()
	}
	e.mPending.Set(int64(pending))
	e.mFiring.Set(int64(firing))
	e.mEvals.Inc()
}

// capture snapshots the registry into the next ring slot.
func (e *Evaluator) capture(now simtime.Time) {
	if e.count > 0 {
		e.head = (e.head + 1) % len(e.ring)
	}
	s := &e.ring[e.head]
	s.t = now
	e.reg.ReadCore(&s.core)
	e.reg.ReadPendingWindow(&s.pend)
	s.npipes = e.reg.ReadPipes(s.pipes)
	if s.npipes > len(s.pipes) {
		s.npipes = len(s.pipes)
	}

	if n := e.reg.NumVIPs(); n != len(e.vipKeys) {
		// VIP set changed: refresh the cached key list (rare; allocates).
		keys := e.reg.VIPKeys()
		if len(keys) > e.cfg.MaxVIPs {
			keys = keys[:e.cfg.MaxVIPs]
		}
		e.vipKeys = keys
		e.vipLabels = make([]string, len(keys))
		for i, k := range keys {
			e.vipLabels[i] = k.String()
		}
		e.vipGen++
	}
	s.vipGen = e.vipGen
	for i, k := range e.vipKeys {
		e.reg.ReadVIP(k, &s.vips[i])
	}
	if e.count < len(e.ring) {
		e.count++
	}
}

// windowStats carries one window's derived signals plus internals the tick
// needs (current degraded fraction, the bounding samples).
type windowStats struct {
	sig              Signals
	cur, prev        *sample
	lastDegradedFrac float64
}

// window derives signals over the most recent w intervals (clamped to the
// samples actually captured).
func (e *Evaluator) window(w int) windowStats {
	cur := &e.ring[e.head]
	avail := e.count - 1
	if w > avail {
		w = avail
	}
	var ws windowStats
	ws.cur = cur
	if e.count > 0 && cur.npipes > 0 {
		deg := 0
		for _, p := range cur.pipes[:cur.npipes] {
			if p.Degraded {
				deg++
			}
		}
		ws.lastDegradedFrac = float64(deg) / float64(cur.npipes)
	}
	ws.sig.DegradedFrac = ws.lastDegradedFrac
	if w <= 0 {
		return ws
	}
	prev := &e.ring[(e.head-w+len(e.ring))%len(e.ring)]
	ws.prev = prev
	sec := cur.t.Sub(prev.t).Seconds()
	if sec <= 0 {
		return ws
	}
	ws.sig.Seconds = sec

	c, p := &cur.core, &prev.core
	newFlows := float64(c.InsertsLearned - p.InsertsLearned)
	pressure := float64((c.InsertRetries - p.InsertRetries) +
		(c.InsertSheds - p.InsertSheds) +
		(c.InsertOverflows - p.InsertOverflows))
	fps := float64(c.DigestFPs - p.DigestFPs)
	lost := float64((c.InsertSheds - p.InsertSheds) + (c.InsertOverflows - p.InsertOverflows))

	var pkts uint64
	n := cur.npipes
	if prev.npipes < n {
		n = prev.npipes
	}
	for i := 0; i < n; i++ {
		pkts += cur.pipes[i].Packets - prev.pipes[i].Packets
	}

	ws.sig.PPS = float64(pkts) / sec
	ws.sig.NewFlowRate = newFlows / sec
	ws.sig.InsertPressure = pressure / sec
	ws.sig.PendingP99 = histDeltaQuantile(&cur.pend, &prev.pend, 0.99)
	if newFlows > 0 {
		ws.sig.DigestFPRate = fps / newFlows
	}
	// PCC risk: of the flows that wanted pinning this window, the fraction
	// that was never pinned (shed/overflow) — plus full exposure while
	// degraded, where new flows are served stateless by design.
	if attempted := newFlows + lost; attempted > 0 {
		ws.sig.PCCRisk = lost / attempted
	}
	if ws.sig.DegradedFrac > ws.sig.PCCRisk {
		ws.sig.PCCRisk = ws.sig.DegradedFrac
	}
	return ws
}

// vipSLIs appends per-VIP fast-window indicators to out.
func (e *Evaluator) vipSLIs(out []VIPSLI, ws windowStats) []VIPSLI {
	if ws.prev == nil || ws.sig.Seconds <= 0 ||
		ws.cur.vipGen != e.vipGen || ws.prev.vipGen != e.vipGen {
		return out
	}
	sec := ws.sig.Seconds
	for i, label := range e.vipLabels {
		c, p := &ws.cur.vips[i], &ws.prev.vips[i]
		pkts := float64(c.Packets - p.Packets)
		sli := VIPSLI{
			VIP:           label,
			PPS:           pkts / sec,
			NewFlowRate:   float64(c.Conns-p.Conns) / sec,
			NoBackendRate: float64(c.NoBackend-p.NoBackend) / sec,
			MeterDropRate: float64(c.MeterDrops-p.MeterDrops) / sec,
		}
		if pkts > 0 {
			sli.ConnHitRate = float64(c.ConnHits-p.ConnHits) / pkts
		}
		out = append(out, sli)
	}
	return out
}

// forecast fits each pipe's occupancy trajectory over the forecast window
// with least squares and appends per-pipe predictions to out.
func (e *Evaluator) forecast(out []PipeForecast) []PipeForecast {
	cur := &e.ring[e.head]
	w := e.cfg.ForecastWindow
	if w > e.count-1 {
		w = e.count - 1
	}
	for pi := 0; pi < cur.npipes; pi++ {
		f := PipeForecast{
			Pipe:       pi,
			Entries:    cur.pipes[pi].Entries,
			Capacity:   cur.pipes[pi].Capacity,
			Degraded:   cur.pipes[pi].Degraded,
			TTESeconds: -1,
		}
		if f.Capacity > 0 {
			f.FillFrac = float64(f.Entries) / float64(f.Capacity)
		}
		if w >= 2 && f.Capacity > 0 {
			// Least-squares slope of (t, entries) over the window, with t
			// shifted to the oldest sample for conditioning.
			var sx, sy, sxx, sxy float64
			n := float64(w + 1)
			t0 := e.ring[(e.head-w+len(e.ring))%len(e.ring)].t
			for k := 0; k <= w; k++ {
				s := &e.ring[(e.head-w+k+len(e.ring))%len(e.ring)]
				if pi >= s.npipes {
					continue
				}
				x := s.t.Sub(t0).Seconds()
				y := float64(s.pipes[pi].Entries)
				sx += x
				sy += y
				sxx += x * x
				sxy += x * y
			}
			if den := n*sxx - sx*sx; den > 0 {
				f.SlopePerSec = (n*sxy - sx*sy) / den
			}
			if f.SlopePerSec > 0 {
				f.TTESeconds = float64(f.Capacity-f.Entries) / f.SlopePerSec
			}
		}
		out = append(out, f)
	}
	return out
}

// Report returns a deep copy of the last published report (zero before the
// first evaluation).
func (e *Evaluator) Report() Report {
	e.lock()
	defer e.unlock()
	out := e.rep
	out.VIPs = append([]VIPSLI(nil), e.rep.VIPs...)
	out.Pipes = append([]PipeForecast(nil), e.rep.Pipes...)
	out.Alerts = append([]AlertStatus(nil), e.rep.Alerts...)
	return out
}

// Alerts returns the current alert board (copy), in rule order.
func (e *Evaluator) Alerts() []AlertStatus {
	e.lock()
	defer e.unlock()
	out := make([]AlertStatus, len(e.alerts))
	for i := range e.alerts {
		out[i] = e.alerts[i].status()
	}
	return out
}

// History returns the transition journal (copy), oldest first. It is
// bounded at maxHistory records.
func (e *Evaluator) History() []Transition {
	e.lock()
	defer e.unlock()
	return append([]Transition(nil), e.history...)
}

// PageFiring reports whether any page-severity alert is currently Firing —
// the signal the fleet controller uses to pause rollouts.
func (e *Evaluator) PageFiring() bool {
	e.lock()
	defer e.unlock()
	for i := range e.alerts {
		if e.alerts[i].rule.Severity == SeverityPage && e.alerts[i].state == StateFiring {
			return true
		}
	}
	return false
}

// histDeltaQuantile computes the q-quantile of cur-prev without
// allocating, attributing bucket mass to upper bounds. Overflow mass is
// capped at the top finite bound so the result stays JSON-safe.
func histDeltaQuantile(cur, prev *telemetry.HistogramSnapshot, q float64) float64 {
	count := cur.Count - prev.Count
	if count <= 0 || len(cur.Bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range cur.Counts {
		c := cur.Counts[i]
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		cum += c
		if cum >= rank {
			if i < len(cur.Bounds) {
				return cur.Bounds[i]
			}
			break
		}
	}
	return cur.Bounds[len(cur.Bounds)-1]
}
