package silkroad

import (
	"encoding/binary"
	"math"
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
)

// raceBuild reports whether the test binary was built with -race, whose
// shadow memory and allocator padding make heap figures meaningless.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// heapAround returns the live heap build leaves behind, keeping its result
// reachable until measured.
func heapAround[T any](build func() T) (T, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return v, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestHeapPerConnBudget holds the switch to its per-connection heap budget
// (DESIGN.md, "The connection store"): a ConnTable slot is 8 bytes — a
// 4-byte word and a 4-byte record index; the key hash is derived from the
// record — paid per slot, so 8 B / load per connection; a record is the
// client's address and port and a 2-byte VIP slot, 8 B for IPv4 and 20 B for
// IPv6 (8 KB and 20 KB chunks, each exactly a size class). Everything else a
// primed switch holds must fit in the 1.5 B tolerance.
//
// With an AgingTimeout a connection also has its 8-byte last-seen time, which
// the aging sweep reads, and nothing else: the whole switch is held to the
// same budget plus 8 B.
func TestHeapPerConnBudget(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("heap measurement: skipped under -short and -race")
	}
	const (
		conns = 200_000
		idle  = 60 * Minute // long enough that nothing ages
	)
	v4 := func(c int) netip.Addr {
		return netip.AddrFrom4([4]byte{1, byte(c >> 16), byte(c >> 8), byte(c)})
	}
	v6 := func(c int) netip.Addr {
		a := netip.MustParseAddr("2001:db8:1::").As16()
		binary.BigEndian.PutUint32(a[12:], uint32(c))
		return netip.AddrFrom16(a)
	}
	for _, fam := range []struct {
		name   string
		vip    netip.Addr
		src    func(c int) netip.Addr
		record float64
		aging  Duration
	}{
		{"IPv4", netip.MustParseAddr("20.0.0.1"), v4, 8, 0},
		{"IPv6", netip.MustParseAddr("2001:db8::1"), v6, 20, 0},
		{"IPv4-aging", netip.MustParseAddr("20.0.0.1"), v4, 8 + 8, idle},
		{"IPv6-aging", netip.MustParseAddr("2001:db8::1"), v6, 20 + 8, idle},
	} {
		t.Run(fam.name, func(t *testing.T) {
			frames := make([]Frame, lifeBatch)
			results := make([]Result, lifeBatch)
			bufs := make([][]byte, lifeBatch)
			for i := range bufs {
				bufs[i] = make([]byte, 0, 128)
			}
			sw, heap := heapAround(func() *Switch {
				cfg := Defaults(conns * 5 / 4)
				cfg.Clock = NewManualClock(0)
				cfg.Controlplane.AgingTimeout = fam.aging
				sw, err := NewSwitch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				vip := VIP{Addr: fam.vip, Port: 80, Proto: TCP}
				if err := sw.AddVIP(0, vip, lifePool(0, 4)); err != nil {
					t.Fatal(err)
				}
				// Prime at the insertion CPU's pace (5 us a connection), then drain.
				now := Time(0)
				for c := 0; c < conns; c += lifeBatch {
					now = now.Add(lifeBatch * 5 * Microsecond)
					for j := range frames {
						tuple := FiveTuple{Src: fam.src(c + j), Dst: vip.Addr, SrcPort: 1024, DstPort: 80, Proto: TCP}
						tupleFrame(t, tuple, FlagSYN, bufs[j], &frames[j])
					}
					sw.ProcessFramesInto(now, frames, results)
				}
				sw.AdvanceTo(now.Add(50 * Millisecond))
				return sw
			})
			if got := sw.Stats().Connections; got != conns || sw.PendingWork() != 0 {
				t.Fatalf("primed %d connections with %d items pending, want %d and 0", got, sw.PendingWork(), conns)
			}
			load := sw.Dataplane().ConnTable().Occupancy()
			got := float64(heap) / conns
			want := 8/load + fam.record
			t.Logf("%.2f heap B/conn at load %.3f; budget 8/load + %.2f = %.2f", got, load, fam.record, want)
			if math.Abs(got-want) > 1.5 {
				t.Fatalf("%.2f heap B/conn at load %.3f, want within 1.5 B of %.2f", got, load, want)
			}
		})
	}
}
