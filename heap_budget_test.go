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

// TestHeapPerConnBudget holds the switch to its per-connection heap budget
// (DESIGN.md, "The connection store"): a ConnTable slot is 20 bytes — an
// 8-byte word, an 8-byte key hash, a 4-byte record index — paid per slot, so
// 20 B / load per connection, and a record is 24 bytes for IPv4 and 48 for
// IPv6. Everything else a primed switch holds must fit in the 2 B tolerance.
func TestHeapPerConnBudget(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("heap measurement: skipped under -short and -race")
	}
	const conns = 200_000
	for _, fam := range []struct {
		name   string
		vip    netip.Addr
		src    func(c int) netip.Addr
		record float64
	}{
		{"IPv4", netip.MustParseAddr("20.0.0.1"), func(c int) netip.Addr {
			return netip.AddrFrom4([4]byte{1, byte(c >> 16), byte(c >> 8), byte(c)})
		}, 24},
		{"IPv6", netip.MustParseAddr("2001:db8::1"), func(c int) netip.Addr {
			a := netip.MustParseAddr("2001:db8:1::").As16()
			binary.BigEndian.PutUint32(a[12:], uint32(c))
			return netip.AddrFrom16(a)
		}, 48},
	} {
		t.Run(fam.name, func(t *testing.T) {
			frames := make([]Frame, lifeBatch)
			results := make([]Result, lifeBatch)
			bufs := make([][]byte, lifeBatch)
			for i := range bufs {
				bufs[i] = make([]byte, 0, 128)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)

			cfg := Defaults(conns * 5 / 4)
			cfg.Clock = NewManualClock(0)
			sw, err := NewSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
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
			if got := sw.Stats().Connections; got != conns || sw.PendingWork() != 0 {
				t.Fatalf("primed %d connections with %d items pending, want %d and 0", got, sw.PendingWork(), conns)
			}

			runtime.GC()
			runtime.ReadMemStats(&after)
			load := sw.Dataplane().ConnTable().Occupancy()
			got := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / conns
			want := 20/load + fam.record
			t.Logf("%.2f heap B/conn at load %.3f; budget 20/load + %.0f = %.2f", got, load, fam.record, want)
			if math.Abs(got-want) > 2 {
				t.Fatalf("%.2f heap B/conn at load %.3f, want within 2 B of %.2f", got, load, want)
			}
		})
	}
}
