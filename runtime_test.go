package silkroad

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/netproto"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRunDrivesControlPlane verifies the wall-clock runtime end to end with
// a hand-stepped clock: a SYN's learn event is drained and its ConnTable
// insertion executed by Switch.Run alone — the test never calls AdvanceTo.
func TestRunDrivesControlPlane(t *testing.T) {
	clock := NewManualClock(0)
	cfg := Defaults(100000)
	cfg.Clock = clock
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
	if err := sw.Run(context.Background()); err != ErrRunning {
		t.Fatalf("second Run returned %v, want ErrRunning", err)
	}

	res := process(sw, sw.Now(), clientPkt(1, netproto.FlagSYN))
	if !res.DIP.IsValid() {
		t.Fatal("no DIP chosen")
	}
	// Push the clock past the learning-filter flush (1 ms) plus the CPU
	// insertion time; a packet-path poke is not needed — the driver's own
	// sleep schedule picks the deadline up.
	clock.Set(Time(10 * Millisecond))
	waitFor(t, "autonomous ConnTable insertion", func() bool {
		return sw.Stats().Controlplane.Inserted == 1
	})

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// TestEveryTask verifies periodic runtime tasks fire as the clock passes
// their deadlines and stop firing once cancelled.
func TestEveryTask(t *testing.T) {
	clock := NewManualClock(0)
	cfg := Defaults(1000)
	cfg.Clock = clock
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	fired := make(chan Time, 16)
	stop := sw.Every(Duration(5*Millisecond), func(now Time) {
		select {
		case fired <- now:
		default:
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sw.Run(ctx) }()

	clock.Set(Time(12 * Millisecond))
	var got []Time
	waitFor(t, "two periodic firings", func() bool {
		for {
			select {
			case at := <-fired:
				got = append(got, at)
			default:
				return len(got) >= 2
			}
		}
	})
	if got[0] != Time(5*Millisecond) || got[1] != Time(10*Millisecond) {
		t.Fatalf("firings at %v, want [5ms 10ms]", got)
	}

	stop()
	clock.Set(Time(50 * Millisecond))
	time.Sleep(20 * time.Millisecond)
	select {
	case at := <-fired:
		t.Fatalf("stopped task fired at %v", at)
	default:
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// TestMultiPipeNextEventTime is the regression test for the multi-pipe
// deadline merge: Switch.NextEventTime must return the earliest due time
// across pipes, and advancing past one pipe's deadline must not starve
// work queued on another pipe. It is also the switch's only deadline: a
// pool update on an idle switch is reported as due, so a caller stepping
// to NextEventTime alone completes it, and the runtime's own work (an SLO
// evaluation, an Every task) is reported on a switch with no packet work.
func TestMultiPipeNextEventTime(t *testing.T) {
	cfg := Defaults(100000)
	cfg.Pipes = 4
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20")); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.NextEventTime(); ok {
		t.Fatal("idle multi-pipe switch reported due work")
	}

	// Find two connections that shard to different pipes.
	eng := sw.Engine()
	first := clientPkt(1, netproto.FlagSYN)
	second := (*Packet)(nil)
	for i := 2; i < 200; i++ {
		p := clientPkt(i, netproto.FlagSYN)
		if eng.PipeOf(p.Tuple) != eng.PipeOf(first.Tuple) {
			second = p
			break
		}
	}
	if second == nil {
		t.Fatal("could not find tuples on two distinct pipes")
	}

	// SYN on pipe A at t=0 and on pipe B half a flush later: the pipes now
	// hold learn events with distinct flush deadlines.
	process(sw, 0, first)
	process(sw, Time(Millisecond)/2, second)

	at, ok := sw.NextEventTime()
	if !ok || at != Time(Millisecond) {
		t.Fatalf("NextEventTime = %v,%v, want pipe A's flush at 1ms", at, ok)
	}

	// Advance through pipe A's deadline only: pipe B's work must survive
	// and still be reported, not be silently dropped or executed early.
	sw.AdvanceTo(Time(Millisecond) + Time(Millisecond)/4)
	at, ok = sw.NextEventTime()
	if !ok {
		t.Fatal("pipe B's pending work vanished after advancing pipe A")
	}
	if want := Time(Millisecond) + Time(Millisecond)/2; at != want {
		t.Fatalf("NextEventTime after pipe A drain = %v, want pipe B's flush at %v", at, want)
	}

	// Advancing past every deadline installs both connections.
	sw.AdvanceTo(Time(5 * Millisecond))
	if got := sw.Stats().Controlplane.Inserted; got != 2 {
		t.Fatalf("Inserted = %d after draining both pipes, want 2", got)
	}
	if _, ok := sw.NextEventTime(); ok {
		t.Fatal("drained switch still reports due work")
	}

	// A pool update on the drained switch has no pending connection to wait
	// for: its transition is due at once, and stepping only to
	// NextEventTime finishes it on the new pool.
	now := Time(5 * Millisecond)
	want := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")
	if err := sw.UpdatePool(now, testVIP(), want); err != nil {
		t.Fatal(err)
	}
	if at, ok := sw.NextEventTime(); !ok || at != now {
		t.Fatalf("NextEventTime after UpdatePool = %v,%v, want the transition at %v", at, ok, now)
	}
	for steps := 0; ; steps++ {
		at, ok := sw.NextEventTime()
		if !ok {
			break
		}
		if steps == 10 {
			t.Fatalf("work still due at %v after %d steps", at, steps)
		}
		sw.AdvanceTo(at)
	}
	for _, ps := range sw.PerPipe() {
		if got := ps.Controlplane.UpdatesCompleted; got != 1 {
			t.Fatalf("pipe %d: UpdatesCompleted = %d, want 1", ps.Pipe, got)
		}
	}
	if got, err := sw.CurrentPool(testVIP()); err != nil || !slices.Equal(got, want) {
		t.Fatalf("CurrentPool = %v, %v; want %v", got, err, want)
	}

	idle := func(slo *SLOConfig) *Switch {
		cfg := Defaults(1000)
		cfg.Pipes = 4
		cfg.Clock = NewManualClock(0)
		if slo != nil {
			cfg.Telemetry, cfg.SLO = NewTelemetry(), slo
		}
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	sw = idle(&SLOConfig{Interval: 10 * Millisecond})
	if at, ok := sw.NextEventTime(); !ok || at != Time(10*Millisecond) {
		t.Fatalf("idle switch with an SLO evaluator: NextEventTime = %v,%v, want the evaluation at 10ms", at, ok)
	}
	sw = idle(nil)
	stop := sw.Every(5*Millisecond, func(Time) {})
	defer stop()
	if at, ok := sw.NextEventTime(); !ok || at != Time(5*Millisecond) {
		t.Fatalf("idle switch with an Every task: NextEventTime = %v,%v, want the task at 5ms", at, ok)
	}
}
