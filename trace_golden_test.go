package silkroad

// The trace golden pins every byte the tracing layer produces for one
// scripted run that fires each telemetry event kind at least once: the
// registry's Prometheus exposition and the flight recorder's journal and
// packet rings. Regenerate with
//
//	go test -run TestTraceKindsGolden -update .
//
// and review the diff: it is the observable contract of the event stream.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netproto"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace_kinds.golden")

// traceScript drives a two-member fleet armed with a metrics registry and a
// sampling flight recorder (plus one armed flow) through a single-goroutine
// script: a spec Apply (reconcile), SYNs that learn and install or are shed
// (verdict, learn_flush, insert, cuckoo), a metered burst (meter_drop), a
// retransmitted SYN redirected to the CPU, a pool update (update_step), a
// fault plan whose table limit forces a degraded crossing and back (fault,
// degraded), and a warm migration (handoff). It returns the exposition and
// the recorder's rings as JSON.
func traceScript(t *testing.T) string {
	t.Helper()
	cfg := Defaults(1000)
	cfg.Clock = NewManualClock(0)
	cfg.Telemetry = NewTelemetry()
	cfg.FlightRecorder = NewFlightRecorder(FlightRecorderConfig{SampleEvery: 3})
	cfg.Dataplane.DegradedHighWatermark = 0.5
	cfg.Dataplane.DegradedLowWatermark = 0.25
	cfg.Controlplane.MaxInsertQueue = 4 // the first flush sheds
	cfg.Faults = &FaultPlan{Seed: 1, Events: []FaultEvent{
		{At: Time(30 * Millisecond), Kind: FaultTableLimit, Pipe: -1, Limit: 8, Duration: 20 * Millisecond},
		{At: Time(32 * Millisecond), Kind: FaultCPUStall, Pipe: 0, Duration: Millisecond},
		{At: Time(33 * Millisecond), Kind: FaultDIPDown, DIP: AddrPort("10.0.0.3:20"), Duration: Millisecond},
	}}
	c, err := NewCluster(ClusterConfig{Switches: 2, Switch: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer checkClocks(t, c)

	metered := NewVIP("20.0.0.9", 80, TCP)
	spec := &ClusterSpec{Version: SpecVersion, VIPs: []VIPSpec{
		{VIP: "20.0.0.1:80/tcp", Pool: []string{"10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20"}},
		{VIP: "20.0.0.9:80/tcp", Pool: []string{"10.0.0.4:20"}, MeterBytesPerSec: 1000},
	}}
	if _, err := c.Apply(0, spec); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(0)
	if !c.Converged() {
		t.Fatal("fleet never converged")
	}

	sw := c.Switch(0)
	if _, err := sw.Trace(clientPkt(1, 0).Tuple); err != nil {
		t.Fatal(err)
	}
	now := Time(20 * Millisecond)
	for i := 0; i < 6; i++ {
		process(sw, now+Time(i)*Time(Microsecond), clientPkt(i, netproto.FlagSYN))
	}
	burst := clientPkt(40, 0)
	burst.Tuple.Dst = metered.Addr
	burst.Payload = make([]byte, 900)
	for i := 0; i < 4; i++ {
		process(sw, now+Time(10+i)*Time(Microsecond), burst)
	}
	sw.AdvanceTo(Time(25 * Millisecond))
	process(sw, Time(26*Millisecond), clientPkt(1, netproto.FlagSYN)) // redirected to the CPU
	if err := sw.UpdatePool(Time(27*Millisecond), testVIP(),
		Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.5:20")); err != nil {
		t.Fatal(err)
	}
	sw.AdvanceTo(Time(31 * Millisecond))
	for i := 10; i < 13; i++ { // above the limited table's high watermark
		process(sw, Time(31*Millisecond)+Time(i)*Time(Microsecond), clientPkt(i, netproto.FlagSYN))
	}
	sw.AdvanceTo(Time(60 * Millisecond))
	process(sw, Time(60*Millisecond), clientPkt(20, netproto.FlagSYN)) // limit lifted: recovers
	process(sw, Time(60*Millisecond), clientPkt(1, netproto.FlagACK))
	sw.AdvanceTo(Time(65 * Millisecond))
	if err := c.Migrate(Time(70*Millisecond), 0, 1); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(Time(90 * Millisecond))

	var b strings.Builder
	if err := WritePrometheus(&b, cfg.Telemetry.Snapshot(Time(100*Millisecond))); err != nil {
		t.Fatal(err)
	}
	for _, part := range []struct {
		name string
		v    any
	}{
		{"journal", cfg.FlightRecorder.Journal()},
		{"packets", cfg.FlightRecorder.Packets()},
	} {
		blob, err := json.MarshalIndent(part.v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("--- " + part.name + " ---\n")
		b.Write(blob)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTraceKindsGolden pins the script's exposition and flight-recorder
// JSON byte for byte, and checks the script really fires every event kind.
func TestTraceKindsGolden(t *testing.T) {
	got := traceScript(t)
	for _, want := range []string{
		`silkroad_pipe_verdicts_total{pipe="0",verdict="redirect_syn_conntable"}`,
		`silkroad_vip_meter_drops_total{vip="20.0.0.9:80/tcp"}`,
		`"kind": "insert"`,
		`"kind": "pool_update"`,
		`"kind": "learn_flush"`,
		`"kind": "cuckoo"`,
		`"kind": "degraded"`,
		`"kind": "fault"`,
		`"kind": "reconcile"`,
		`"kind": "handoff"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("script output lacks %s", want)
		}
	}
	if again := traceScript(t); again != got {
		t.Fatal("trace script is not deterministic")
	}

	path := filepath.Join("testdata", "trace_kinds.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("trace output differs from %s (run with -update and review the diff)", path)
	}
}
