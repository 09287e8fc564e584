package telemetry

import (
	"math"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket atomic histogram with the same bucket rule
// as internal/stats.Histogram: a value v lands in the first bucket whose
// upper bound satisfies v <= bound, or in the final overflow bucket.
// Snapshots convert losslessly to *stats.Histogram for analysis.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram creates a histogram with the given strictly ascending
// bucket upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search like sort.SearchFloat64s, inlined to keep the hot path
	// free of interface calls.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// SnapshotInto captures the histogram's current state into s, reusing
// s.Bounds and s.Counts when their capacity suffices — the allocation-free
// form of Snapshot for periodic samplers (the SLO engine's delta ring).
func (h *Histogram) SnapshotInto(s *HistogramSnapshot) {
	if cap(s.Bounds) < len(h.bounds) {
		s.Bounds = make([]float64, len(h.bounds))
	}
	s.Bounds = s.Bounds[:len(h.bounds)]
	copy(s.Bounds, h.bounds)
	if cap(s.Counts) < len(h.counts) {
		s.Counts = make([]int64, len(h.counts))
	}
	s.Counts = s.Counts[:len(h.counts)]
	s.Count = 0
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
}

// HistogramSnapshot is a point-in-time copy of a Histogram, serializable
// to JSON and convertible to the stats toolkit's histogram type.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Histogram converts the snapshot into an internal/stats.Histogram so the
// evaluation toolkit's bucket/fraction helpers apply to live telemetry.
func (s HistogramSnapshot) Histogram() *stats.Histogram {
	return stats.NewHistogramFromCounts(s.Bounds, s.Counts)
}

// Mean returns the average observed value, or 0 with no samples.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Delta returns the bucket-wise difference s - prev (counter semantics:
// both snapshots must come from the same histogram, s taken later).
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: append([]int64(nil), s.Counts...),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	for i := range out.Counts {
		if i < len(prev.Counts) {
			out.Counts[i] -= prev.Counts[i]
		}
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// attributing each bucket's mass to its upper bound (overflow samples
// report +Inf). It returns 0 with no samples.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// VIPSeries is the per-(pipe, VIP) hot-path accumulator. Components that
// install a VIP resolve the series once through Tracer.RegisterVIP and
// then update it with plain atomic operations — no map lookups and no
// allocations on the packet path. The Registry's event fold updates the same
// fields when events carry the series, so both sides see one set of
// numbers.
type VIPSeries struct {
	Packets    Counter // packets addressed to the VIP (post-meter included)
	Bytes      Counter // wire bytes of those packets
	ConnHits   Counter // served from ConnTable
	Learns     Counter // learn events generated
	NoBackend  Counter // drops because the pool version was empty
	MeterDrops Counter // packets the VIP meter marked red
	MeterBytes Counter // wire bytes of those drops
	Conns      Counter // connections installed into ConnTable
	ConnsEnded Counter // connections terminated or aged out
}

// VIPSnapshot is the serializable per-VIP aggregate (summed over pipes).
type VIPSnapshot struct {
	Packets    uint64 `json:"packets"`
	Bytes      uint64 `json:"bytes"`
	ConnHits   uint64 `json:"conn_hits"`
	Learns     uint64 `json:"learns"`
	NoBackend  uint64 `json:"no_backend"`
	MeterDrops uint64 `json:"meter_drops"`
	MeterBytes uint64 `json:"meter_bytes"`
	Conns      uint64 `json:"conns"`
	ConnsEnded uint64 `json:"conns_ended"`
}

func (v *VIPSeries) snapshotInto(s *VIPSnapshot) {
	s.Packets += v.Packets.Load()
	s.Bytes += v.Bytes.Load()
	s.ConnHits += v.ConnHits.Load()
	s.Learns += v.Learns.Load()
	s.NoBackend += v.NoBackend.Load()
	s.MeterDrops += v.MeterDrops.Load()
	s.MeterBytes += v.MeterBytes.Load()
	s.Conns += v.Conns.Load()
	s.ConnsEnded += v.ConnsEnded.Load()
}

// sub subtracts prev from s field-wise (delta semantics).
func (s VIPSnapshot) sub(prev VIPSnapshot) VIPSnapshot {
	return VIPSnapshot{
		Packets:    s.Packets - prev.Packets,
		Bytes:      s.Bytes - prev.Bytes,
		ConnHits:   s.ConnHits - prev.ConnHits,
		Learns:     s.Learns - prev.Learns,
		NoBackend:  s.NoBackend - prev.NoBackend,
		MeterDrops: s.MeterDrops - prev.MeterDrops,
		MeterBytes: s.MeterBytes - prev.MeterBytes,
		Conns:      s.Conns - prev.Conns,
		ConnsEnded: s.ConnsEnded - prev.ConnsEnded,
	}
}
