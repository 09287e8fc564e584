package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	silkroad "repro"
	"repro/internal/netproto"
)

// testServer builds the daemon's HTTP surface around a deterministic
// manual-clock switch: no sockets, no packet loop, no wall time.
type testServer struct {
	sw  *silkroad.Switch
	reg *silkroad.Telemetry
	mux *http.ServeMux
	now silkroad.Time
}

func newTestServer(t *testing.T, mutate func(*silkroad.Config)) *testServer {
	t.Helper()
	cfg := silkroad.Defaults(100000)
	cfg.Clock = silkroad.NewManualClock(0)
	reg := silkroad.NewTelemetry()
	reg.SetBuildInfo("v0.0.0-test", "go-test")
	reg.SetProcessStart(1700000000)
	cfg.Telemetry = reg
	cfg.FlightRecorder = silkroad.NewFlightRecorder(silkroad.FlightRecorderConfig{})
	cfg.SLO = &silkroad.SLOConfig{Interval: 10 * silkroad.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := &silkroad.ClusterSpec{Version: silkroad.SpecVersion, VIPs: []silkroad.VIPSpec{
		{VIP: "20.0.0.1:80", Pool: []string{"10.0.0.1:20", "10.0.0.2:20"}},
	}}
	if _, err := sw.Apply(0, spec); err != nil {
		t.Fatal(err)
	}
	src := &specSource{}
	src.set("flags", "")
	return &testServer{sw: sw, reg: reg, mux: newMux(sw, reg, nil, src, true)}
}

func (ts *testServer) get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	ts.mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// tick advances virtual time by d through the switch runtime.
func (ts *testServer) tick(d silkroad.Duration) {
	ts.now += silkroad.Time(d)
	ts.sw.AdvanceTo(ts.now)
}

// syn runs one distinct-flow SYN through the data path.
func (ts *testServer) syn(i int) {
	pkt := &netproto.Packet{
		Tuple: netproto.FiveTuple{
			Src:     netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("20.0.0.1"),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
			Proto:   netproto.ProtoTCP,
		},
		TCPFlags: netproto.FlagSYN,
	}
	var f netproto.Frame
	pkt.Frame(&f)
	ts.sw.ProcessFrame(ts.now, &f)
}

func wantJSON(t *testing.T, w *httptest.ResponseRecorder, wantCode int) []byte {
	t.Helper()
	if w.Code != wantCode {
		t.Fatalf("status = %d, want %d (body %q)", w.Code, wantCode, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content-type = %q, want application/json", ct)
	}
	return w.Body.Bytes()
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)
	w := ts.get(t, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{"silkroad_build_info", "silkroad_process_start_time_seconds"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestMetricsExportsTunnelCounters: the I/O loop's counters reach /metrics
// as silkroad_tunnel_* — here after one undecodable datagram, one verdict
// drop and one forward over loopback sockets.
func TestMetricsExportsTunnelCounters(t *testing.T) {
	ts := newTestServer(t, nil)
	backend, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	spec := &silkroad.ClusterSpec{Version: silkroad.SpecVersion, VIPs: []silkroad.VIPSpec{
		{VIP: "20.0.0.1:80", Pool: []string{backend.LocalAddr().String()}},
	}}
	if _, err := ts.sw.Apply(0, spec); err != nil {
		t.Fatal(err)
	}
	tun, err := silkroad.NewTunnel(silkroad.TunnelConfig{Switch: ts.sw, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tun.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- tun.Run(ctx) }()

	client, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(tun.LocalAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	syn := func(dst string) []byte {
		p := &netproto.Packet{
			Tuple: netproto.FiveTuple{
				Src: netip.MustParseAddr("198.51.100.7"), Dst: netip.MustParseAddr(dst),
				SrcPort: 4242, DstPort: 80, Proto: netproto.ProtoTCP,
			},
			TCPFlags: netproto.FlagSYN,
		}
		raw, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, pkt := range [][]byte{[]byte("not an IP packet"), syn("203.0.113.9"), syn("20.0.0.1")} {
		if _, err := client.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := tun.Stats(); st.Undecodable+st.Dropped+st.Forwarded+st.TxErrors == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tunnel accounted for %+v, want 3 datagrams", tun.Stats())
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("tunnel Run: %v", err)
	}

	w := httptest.NewRecorder()
	newMux(ts.sw, ts.reg, tun, &specSource{}, false).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	st := tun.Stats()
	if st.RxBatches == 0 || st.TxBatches != 1 {
		t.Errorf("tunnel stats %+v: want at least one read batch and exactly one send batch", st)
	}
	for name, want := range map[string]uint64{
		"silkroad_tunnel_rx_packets_total":  3,
		"silkroad_tunnel_rx_bytes_total":    st.RxBytes,
		"silkroad_tunnel_rx_batches_total":  st.RxBatches,
		"silkroad_tunnel_undecodable_total": 1,
		"silkroad_tunnel_forwarded_total":   1,
		"silkroad_tunnel_dropped_total":     1,
		"silkroad_tunnel_tx_errors_total":   0,
		"silkroad_tunnel_tx_batches_total":  1,
	} {
		line := name + " " + strconv.FormatUint(want, 10) + "\n"
		if !strings.Contains(body, "# TYPE "+name+" counter\n"+line) {
			t.Errorf("/metrics lacks counter %q", strings.TrimSpace(line))
		}
	}
	// Without a tunnel the exposition carries none of them.
	if strings.Contains(ts.get(t, "/metrics").Body.String(), "silkroad_tunnel_") {
		t.Error("/metrics exports tunnel counters with no tunnel attached")
	}
}

// TestReadyzFlipsDegraded: /readyz answers 200 while the ConnTable is
// healthy and 503 with per-pipe detail once occupancy crosses the high
// watermark — the signal health checks drain the box on.
func TestReadyzFlipsDegraded(t *testing.T) {
	ts := newTestServer(t, func(cfg *silkroad.Config) {
		*cfg = silkroad.Defaults(64)
		cfg.Dataplane.DegradedHighWatermark = 0.3
		cfg.Dataplane.DegradedLowWatermark = 0.1
	})

	var st silkroad.DegradedState
	if err := json.Unmarshal(wantJSON(t, ts.get(t, "/readyz"), http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatal("degraded before any load")
	}

	// Flood distinct flows until a miss evaluates the watermark as
	// exceeded; inserts land via the runtime between batches.
	for round := 0; round < 200 && !ts.sw.DegradedState().Degraded; round++ {
		for i := 0; i < 20; i++ {
			ts.syn(round*20 + i)
		}
		ts.tick(10 * silkroad.Millisecond)
	}

	w := ts.get(t, "/readyz")
	if err := json.Unmarshal(wantJSON(t, w, http.StatusServiceUnavailable), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || len(st.Pipes) == 0 {
		t.Fatalf("degraded state = %+v", st)
	}
}

func TestSpecEndpointMethodsAndValidation(t *testing.T) {
	ts := newTestServer(t, nil)

	w := ts.get(t, "/v1/spec")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/spec = %d, want 405", w.Code)
	}
	if allow := w.Header().Get("Allow"); allow != http.MethodPut {
		t.Fatalf("Allow = %q, want PUT", allow)
	}

	w = httptest.NewRecorder()
	ts.mux.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/spec",
		strings.NewReader(`{"bogus": true}`)))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid spec = %d, want 422 (body %q)", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	ts.mux.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/spec", strings.NewReader(
		`{"version": "silkroad/v1", "vips": [{"vip": "20.0.0.1:80", "pool": ["10.0.0.9:20"]}]}`)))
	var applied struct {
		Generation uint64               `json:"generation"`
		Statuses   []silkroad.VIPStatus `json:"statuses"`
	}
	if err := json.Unmarshal(wantJSON(t, w, http.StatusOK), &applied); err != nil {
		t.Fatal(err)
	}
	if applied.Generation != 2 || len(applied.Statuses) != 1 {
		t.Fatalf("applied = %+v, want generation 2 with 1 status", applied)
	}
}

func TestConfigzShape(t *testing.T) {
	ts := newTestServer(t, nil)
	var cz struct {
		Source     string                `json:"source"`
		Generation uint64                `json:"generation"`
		Converged  bool                  `json:"converged"`
		Statuses   []silkroad.VIPStatus  `json:"statuses"`
		Spec       *silkroad.ClusterSpec `json:"spec"`
	}
	if err := json.Unmarshal(wantJSON(t, ts.get(t, "/configz"), http.StatusOK), &cz); err != nil {
		t.Fatal(err)
	}
	if cz.Source != "flags" || cz.Generation != 1 || len(cz.Statuses) != 1 || cz.Spec == nil {
		t.Fatalf("configz = %+v", cz)
	}
}

func TestSLOEndpoints(t *testing.T) {
	ts := newTestServer(t, nil)
	for round := 0; round < 8; round++ {
		for i := 0; i < 25; i++ {
			ts.syn(round*25 + i)
		}
		ts.tick(10 * silkroad.Millisecond)
	}

	var rep silkroad.SLOReport
	if err := json.Unmarshal(wantJSON(t, ts.get(t, "/slo"), http.StatusOK), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Evals == 0 || len(rep.Pipes) == 0 || len(rep.Alerts) == 0 {
		t.Fatalf("slo report = evals %d, %d pipes, %d alerts", rep.Evals, len(rep.Pipes), len(rep.Alerts))
	}

	var az struct {
		PageFiring bool                       `json:"page_firing"`
		Alerts     []silkroad.AlertStatus     `json:"alerts"`
		History    []silkroad.AlertTransition `json:"history"`
	}
	if err := json.Unmarshal(wantJSON(t, ts.get(t, "/alertz"), http.StatusOK), &az); err != nil {
		t.Fatal(err)
	}
	if len(az.Alerts) != len(silkroad.DefaultSLORules()) {
		t.Fatalf("alertz board = %d rules, want %d", len(az.Alerts), len(silkroad.DefaultSLORules()))
	}

	// Identical state must serialize identically: the JSON surface is
	// deterministic for scrapers and tests alike.
	a := ts.get(t, "/slo").Body.String()
	b := ts.get(t, "/slo").Body.String()
	if a != b {
		t.Error("/slo not byte-deterministic across identical reads")
	}
}

func TestSLODisabledAnswers404(t *testing.T) {
	ts := newTestServer(t, func(cfg *silkroad.Config) {
		cfg.SLO = nil
	})
	for _, path := range []string{"/slo", "/alertz"} {
		if w := ts.get(t, path); w.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, w.Code)
		}
	}
}

func TestDebugIntentEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)
	w := ts.get(t, "/debug/silkroad/intent")
	body := wantJSON(t, w, http.StatusOK)
	var iv struct {
		Generation uint64               `json:"generation"`
		Statuses   []silkroad.VIPStatus `json:"statuses"`
	}
	if err := json.Unmarshal(body, &iv); err != nil {
		t.Fatalf("intent view: %v (body %q)", err, body)
	}
	if iv.Generation != 1 {
		t.Fatalf("intent generation = %d, want 1", iv.Generation)
	}
}
