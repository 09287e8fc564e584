// Package regarray models the transactional stateful memory of a switching
// ASIC: register arrays with read-check-modify-write in a single clock
// cycle, packet/byte counters, and RFC 4115 two-rate three-color meters.
//
// The paper (§4.1) relies on exactly this primitive to build the
// TransitTable bloom filter: unlike the cuckoo-managed exact-match tables,
// register updates need no switch-CPU involvement, so an update by one
// packet is visible to the very next packet. In this model that property is
// trivially provided by sequential method calls; what we preserve is the
// *resource envelope* — a register array occupies SRAM and a stateful ALU,
// which the asic package accounts for.
package regarray

import (
	"fmt"

	"repro/internal/simtime"
)

// Array is a register array of fixed-width cells (1..64 bits).
type Array struct {
	width int
	mask  uint64
	cells []uint64
}

// New creates a register array with n cells of the given bit width.
func New(n, widthBits int) *Array {
	if n <= 0 {
		panic("regarray: size must be positive")
	}
	if widthBits <= 0 || widthBits > 64 {
		panic("regarray: width must be in 1..64")
	}
	mask := ^uint64(0)
	if widthBits < 64 {
		mask = 1<<uint(widthBits) - 1
	}
	return &Array{width: widthBits, mask: mask, cells: make([]uint64, n)}
}

// Len returns the number of cells.
func (a *Array) Len() int { return len(a.cells) }

// SizeBytes returns the SRAM footprint in bytes (width*n rounded up).
func (a *Array) SizeBytes() int { return (a.width*len(a.cells) + 7) / 8 }

// Read returns cell i.
func (a *Array) Read(i int) uint64 { return a.cells[i] }

// Write stores v (truncated to the cell width) into cell i.
func (a *Array) Write(i int, v uint64) { a.cells[i] = v & a.mask }

// Update applies f to cell i transactionally and returns the old and new
// values. This is the generalized read-check-modify-write primitive P4
// exposes as a RegisterAction.
func (a *Array) Update(i int, f func(old uint64) uint64) (old, new uint64) {
	old = a.cells[i]
	new = f(old) & a.mask
	a.cells[i] = new
	return old, new
}

// Clear zeroes every cell.
func (a *Array) Clear() {
	for i := range a.cells {
		a.cells[i] = 0
	}
}

// Counter is a packets+bytes counter pair, as attached to match entries.
type Counter struct {
	Packets uint64
	Bytes   uint64
}

// Add records one packet of the given byte length.
func (c *Counter) Add(bytes int) {
	c.Packets++
	c.Bytes += uint64(bytes)
}

// Color is the result of metering a packet.
type Color uint8

// Meter colors per RFC 4115 / RFC 2698 terminology.
const (
	Green Color = iota
	Yellow
	Red
)

// String returns the color name.
func (c Color) String() string {
	switch c {
	case Green:
		return "green"
	case Yellow:
		return "yellow"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("color(%d)", uint8(c))
	}
}

// Meter is an RFC 4115 two-rate three-color marker with efficient handling
// of in-profile traffic. SilkRoad attaches one per VIP to throttle DDoS or
// flash-crowd traffic entirely in hardware (§5.2).
//
// CIR/EIR are in bytes per second of virtual time; CBS/EBS in bytes.
type Meter struct {
	CIR, EIR float64 // committed / excess information rate, B/s
	CBS, EBS float64 // committed / excess burst size, B

	tc, te float64 // current token buckets
	last   simtime.Time
	init   bool
}

// NewMeter creates a meter with the given rates and bursts.
func NewMeter(cir, cbs, eir, ebs float64) *Meter {
	if cir < 0 || cbs <= 0 || eir < 0 || ebs <= 0 {
		panic("regarray: meter rates must be non-negative and bursts positive")
	}
	return &Meter{CIR: cir, EIR: eir, CBS: cbs, EBS: ebs}
}

// Mark meters a packet of the given length arriving at now and returns its
// color. Per RFC 4115 (color-blind mode): in-profile traffic consumes the
// committed bucket; out-of-profile traffic consumes the excess bucket;
// traffic exceeding both is red.
func (m *Meter) Mark(now simtime.Time, bytes int) Color {
	if !m.init {
		m.tc, m.te = m.CBS, m.EBS
		m.last = now
		m.init = true
	}
	if now.After(m.last) {
		dt := now.Sub(m.last).Seconds()
		m.tc += m.CIR * dt
		if m.tc > m.CBS {
			m.tc = m.CBS
		}
		m.te += m.EIR * dt
		if m.te > m.EBS {
			m.te = m.EBS
		}
		m.last = now
	}
	b := float64(bytes)
	if m.tc >= b {
		m.tc -= b
		return Green
	}
	if m.te >= b {
		m.te -= b
		return Yellow
	}
	return Red
}
