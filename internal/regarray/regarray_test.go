package regarray

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestArrayBasics(t *testing.T) {
	a := New(16, 8)
	if a.Len() != 16 {
		t.Fatalf("Len = %d", a.Len())
	}
	if a.SizeBytes() != 16 {
		t.Fatalf("SizeBytes = %d, want 16", a.SizeBytes())
	}
	a.Write(3, 0x1ff) // truncated to 8 bits
	if got := a.Read(3); got != 0xff {
		t.Fatalf("Read = %#x, want 0xff (width truncation)", got)
	}
}

func TestArrayBitWidth(t *testing.T) {
	a := New(100, 1)
	a.Write(0, 3)
	if a.Read(0) != 1 {
		t.Fatal("1-bit cell did not truncate")
	}
	if a.SizeBytes() != 13 { // ceil(100/8)
		t.Fatalf("SizeBytes = %d, want 13", a.SizeBytes())
	}
	a64 := New(2, 64)
	a64.Write(1, ^uint64(0))
	if a64.Read(1) != ^uint64(0) {
		t.Fatal("64-bit cell truncated")
	}
}

func TestArrayUpdateTransactional(t *testing.T) {
	a := New(4, 32)
	a.Write(0, 10)
	old, now := a.Update(0, func(v uint64) uint64 { return v + 5 })
	if old != 10 || now != 15 || a.Read(0) != 15 {
		t.Fatalf("Update: old=%d new=%d read=%d", old, now, a.Read(0))
	}
	// The next update must see the previous update's result — the packet
	// transactional semantics the TransitTable depends on.
	old2, _ := a.Update(0, func(v uint64) uint64 { return v * 2 })
	if old2 != 15 {
		t.Fatalf("second update saw %d, want 15", old2)
	}
}

func TestArrayClear(t *testing.T) {
	a := New(8, 16)
	for i := 0; i < 8; i++ {
		a.Write(i, uint64(i+1))
	}
	a.Clear()
	for i := 0; i < 8; i++ {
		if a.Read(i) != 0 {
			t.Fatalf("cell %d not cleared", i)
		}
	}
}

func TestArrayPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 8) },
		func() { New(4, 0) },
		func() { New(4, 65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad New did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(100)
	c.Add(52)
	if c.Packets != 2 || c.Bytes != 152 {
		t.Fatalf("counter = %+v", c)
	}
}

func TestMeterGreenWithinCIR(t *testing.T) {
	// 10 Gbps CIR expressed in B/s, generous burst.
	m := NewMeter(1.25e9, 1.25e6, 1.25e8, 1.25e5)
	now := simtime.Time(0)
	// Send at exactly CIR: 1250-byte packets every microsecond = 1.25 GB/s.
	red := 0
	for i := 0; i < 10000; i++ {
		if m.Mark(now, 1250) == Red {
			red++
		}
		now = now.Add(simtime.Microsecond)
	}
	if red != 0 {
		t.Fatalf("in-profile traffic marked red %d times", red)
	}
}

func TestMeterRedAboveRates(t *testing.T) {
	m := NewMeter(1000, 1000, 1000, 1000) // 1 KB/s committed and excess
	now := simtime.Time(0)
	colors := map[Color]int{}
	// Burst 10 KB instantly: first ~1KB green, next ~1KB yellow, rest red.
	for i := 0; i < 100; i++ {
		colors[m.Mark(now, 100)]++
	}
	if colors[Green] != 10 || colors[Yellow] != 10 || colors[Red] != 80 {
		t.Fatalf("colors = %v, want 10 green / 10 yellow / 80 red", colors)
	}
}

func TestMeterRefills(t *testing.T) {
	m := NewMeter(1000, 1000, 0, 1) // refill only committed bucket
	now := simtime.Time(0)
	if m.Mark(now, 1000) != Green {
		t.Fatal("first packet should be green")
	}
	if m.Mark(now, 1000) == Green {
		t.Fatal("bucket should be empty")
	}
	now = now.Add(simtime.Second) // refills 1000 bytes
	if m.Mark(now, 1000) != Green {
		t.Fatal("bucket should have refilled")
	}
}

// TestMeterAccuracy reproduces the §5.2 metering experiment in miniature:
// offered 2x CIR, the green fraction must be CIR/offered within 1%.
func TestMeterAccuracy(t *testing.T) {
	cir := 1.25e9 / 2 // 5 Gbps in B/s
	m := NewMeter(cir, cir/100, 1, 1)
	now := simtime.Time(0)
	greenBytes, totalBytes := 0.0, 0.0
	const pkt = 1250
	// Offer 10 Gbps: one 1250B packet every 1 us.
	for i := 0; i < 2_000_000; i++ {
		if m.Mark(now, pkt) == Green {
			greenBytes += pkt
		}
		totalBytes += pkt
		now = now.Add(simtime.Microsecond)
	}
	gotRate := greenBytes / now.Sub(0).Seconds()
	err := (gotRate - cir) / cir
	if err < -0.01 || err > 0.01 {
		t.Fatalf("metered rate error = %.4f, want |err| < 1%%", err)
	}
}

func TestMeterPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad meter config did not panic")
		}
	}()
	NewMeter(-1, 1, 1, 1)
}

func TestColorString(t *testing.T) {
	if Green.String() != "green" || Yellow.String() != "yellow" || Red.String() != "red" {
		t.Fatal("color names wrong")
	}
	if Color(9).String() != "color(9)" {
		t.Fatal("unknown color name wrong")
	}
}

// Property: Update always truncates to width and stores what it returns.
func TestUpdateProperty(t *testing.T) {
	a := New(1, 12)
	f := func(v uint64) bool {
		_, newV := a.Update(0, func(uint64) uint64 { return v })
		return newV == v&0xfff && a.Read(0) == newV
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMeterMark(b *testing.B) {
	m := NewMeter(1e9, 1e7, 1e8, 1e6)
	for i := 0; i < b.N; i++ {
		m.Mark(simtime.Time(i)*1000, 1250)
	}
}
