package silkroad

// Regression test for the facade batch path against the wall-clock
// runtime: a learned batch on an otherwise quiet multi-pipe switch must
// wake the wall driver through the single post-batch poke.

import (
	"context"
	"testing"
	"time"

	"repro/internal/netproto"
)

// TestLearnedBatchWakesWallDriver parks the wall driver on an idle
// multi-pipe switch, then submits one SYN batch. ProcessFramesInto issues at
// most one poke for the whole batch; that single poke must be enough for
// the driver to re-read NextEventTime across all pipes and drain every
// pipe's learn flush promptly. If the poke were lost, the driver would sleep out
// its 250 ms idle poll — the latency bound below catches that.
func TestLearnedBatchWakesWallDriver(t *testing.T) {
	clock := NewManualClock(0)
	cfg := Defaults(100000)
	cfg.Clock = clock
	cfg.Pipes = 4
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sw.Run(ctx) }()
	waitFor(t, "runtime driver to start", func() bool {
		return sw.rt.driver.Load() != nil
	})
	// Let the driver finish any startup pass and park in its idle sleep:
	// with nothing scheduled it naps 250 ms at a time, so after 300 ms it
	// is mid-nap with essentially the full poll interval ahead of it.
	time.Sleep(300 * time.Millisecond)

	const conns = 32
	pkts := make([]*Packet, conns)
	for i := range pkts {
		pkts[i] = clientPkt(i, netproto.FlagSYN)
	}
	start := time.Now()
	res := processBatch(sw, sw.Now(), pkts)
	learned := false
	for i := range res {
		learned = learned || res[i].Learned
	}
	if !learned {
		t.Fatal("SYN batch learned nothing")
	}
	// Past the learning-filter flush (1 ms) plus the rate-limited
	// insertions; the driver still has to wake up to notice.
	clock.Set(Time(50 * Millisecond))
	waitFor(t, "batch learns drained by the runtime", func() bool {
		return sw.Stats().Controlplane.Inserted == conns
	})
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("drain took %v — poke lost, driver slept out its idle poll", elapsed)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}
