package silkroad

import (
	"context"
	"testing"

	"repro/internal/netproto"
)

// BenchmarkRuntimeOverhead compares ProcessBatch throughput with the
// switch's background work driven by hand (the legacy per-batch Advance
// call) against the identical workload with the event runtime active
// (Switch.Run on a hand-stepped clock, background work executing on the
// driver goroutine). The acceptance bar is scheduler-driven within 5% of
// hand-driven; CI runs it as a bench smoke step.
func BenchmarkRuntimeOverhead(b *testing.B) {
	b.Run("hand", func(b *testing.B) { benchRuntimeOverhead(b, false) })
	b.Run("sched", func(b *testing.B) { benchRuntimeOverhead(b, true) })
}

func benchRuntimeOverhead(b *testing.B, schedDriven bool) {
	clock := NewManualClock(0)
	cfg := Defaults(1_000_000)
	cfg.Pipes = 4
	cfg.Clock = clock
	sw, err := NewSwitch(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		b.Fatal(err)
	}

	// Establish the connection working set before the timer starts.
	const conns = 8192
	const batchSize = 256
	batch := make([]*Packet, batchSize)
	for base := 0; base < conns; base += batchSize {
		for j := range batch {
			batch[j] = clientPkt(base+j, netproto.FlagSYN)
		}
		sw.ProcessBatch(0, batch)
	}
	sw.Advance(Time(5 * Millisecond))

	now := Time(10 * Millisecond)
	if schedDriven {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- sw.Run(ctx) }()
		defer func() {
			cancel()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}()
	}

	b.ReportAllocs()
	b.SetBytes(batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * batchSize) % conns
		for j := range batch {
			batch[j] = clientPkt((base+j)%conns, netproto.FlagACK)
		}
		if schedDriven {
			// The runtime owns background work: step the clock and let the
			// packet path's poke wake the driver when anything is due.
			clock.Set(now)
			sw.ProcessBatch(now, batch)
		} else {
			sw.ProcessBatch(now, batch)
			sw.Advance(now)
		}
		now = now.Add(Microsecond)
	}
}
