// Command silkroadd runs a SilkRoad switch against real sockets: it
// listens on a UDP port, treats each datagram's payload as a raw IPv4/IPv6
// packet (the encapsulation a ToR would see), runs it through the SilkRoad
// pipeline on the wire-native frame path (silkroad.Tunnel: batched socket
// reads, one parse per packet, in-place rewrite or IP-in-IP encap at TX),
// and forwards to the chosen DIP as a UDP datagram.
//
// This is the "zero-to-forwarding" demo of the data path; production
// deployment of the real system is a P4 program on an ASIC. The switch
// runs on its wall-clock event runtime (Switch.Run): learning-filter
// drains, CPU insertions, PCC update steps, connection aging and periodic
// stats all execute autonomously — the daemon never advances time by hand.
// SIGINT/SIGTERM shut it down cleanly with a final metrics snapshot.
//
//	silkroadd -listen :9000 -vip 20.0.0.1:80 -dips 127.0.0.1:9001,127.0.0.1:9002
//
// Configuration is declarative: the -vip/-dips flags are folded into a
// one-VIP ClusterSpec and applied through the same reconcile engine as
// -config <file> (a JSON spec, polled for changes and re-applied) and the
// PUT /v1/spec endpoint on the -metrics listener. GET /configz reports the
// last applied spec, its generation and per-VIP status conditions.
//
// Test it with cmd/tracegen's -emit mode or any tool that sends raw
// IPv4/TCP bytes over UDP.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	rtdebug "runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	silkroad "repro"
)

// buildVersion reports the binary's module version from the embedded build
// info ("(devel)" for plain `go build`/`go run`), for the
// silkroad_build_info metric.
func buildVersion() string {
	if bi, ok := rtdebug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// specSource tracks where the live spec came from and the last load error,
// for /configz.
type specSource struct {
	mu      sync.Mutex
	source  string // "flags", "file:<path>", "api"
	lastErr string
}

func (ss *specSource) set(source, lastErr string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.source = source
	ss.lastErr = lastErr
}

func (ss *specSource) get() (string, string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.source, ss.lastErr
}

// applySpecFile loads, parses and applies one spec file. Returns an error
// for unreadable or invalid specs; the switch keeps serving its previous
// state in that case.
func applySpecFile(sw *silkroad.Switch, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := silkroad.ParseSpec(data)
	if err != nil {
		return err
	}
	if _, err := sw.Apply(sw.Now(), spec); err != nil {
		return err
	}
	return nil
}

func main() {
	listen := flag.String("listen", ":9000", "UDP address to receive encapsulated packets on")
	vipFlag := flag.String("vip", "20.0.0.1:80", "VIP address:port to announce (TCP); ignored with -config")
	dipsFlag := flag.String("dips", "127.0.0.1:9001,127.0.0.1:9002", "comma-separated DIP address:port list; ignored with -config")
	configFlag := flag.String("config", "", "JSON ClusterSpec file; polled for changes and re-applied declaratively")
	configPoll := flag.Duration("config-poll", 2*time.Second, "poll interval for -config file changes")
	conns := flag.Int("conns", 1_000_000, "ConnTable provisioning")
	mode := flag.String("mode", "rewrite", "forwarding mode: rewrite (DNAT) or ipip (encapsulate, DSR)")
	selfAddr := flag.String("self", "192.0.2.1", "outer source address for -mode ipip")
	batch := flag.Int("batch", 64, "max datagrams per socket read batch")
	stats := flag.Duration("stats", 10*time.Second, "stats print interval")
	metricsAddr := flag.String("metrics", "", "HTTP address serving Prometheus metrics at /metrics (e.g. :9090); empty disables")
	debug := flag.Bool("debug", false, "serve /debug/silkroad/ (flight recorder, table dumps) and /debug/pprof/ on the -metrics listener")
	sampleEvery := flag.Int("trace-sample", 0, "with -debug, record every Nth packet in the trace ring (0 = armed flows only)")
	degHigh := flag.Float64("degraded-high", 0.95, "ConnTable occupancy fraction above which new flows are served stateless (0 disables degraded mode)")
	degLow := flag.Float64("degraded-low", 0.85, "occupancy fraction below which the switch leaves degraded mode")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "free a connection's ConnTable entry after this long without a packet (0 = never: the table only grows)")
	sloInterval := flag.Duration("slo-interval", time.Second, "SLO evaluation interval for /slo and /alertz (0 disables the evaluator)")
	flag.Parse()

	if *debug && *metricsAddr == "" {
		log.Fatal("silkroadd: -debug needs -metrics to serve the debug endpoints on")
	}

	if *idleTimeout < 0 {
		log.Fatal("silkroadd: -idle-timeout must not be negative")
	}

	cfg := silkroad.Defaults(*conns)
	// The tunnel sees packets, not connection ends: idle aging is the only
	// thing that ever frees an entry.
	cfg.Controlplane.AgingTimeout = silkroad.Duration((*idleTimeout).Nanoseconds())
	cfg.Dataplane.DegradedHighWatermark = *degHigh
	cfg.Dataplane.DegradedLowWatermark = *degLow
	telemetry := silkroad.NewTelemetry()
	telemetry.SetBuildInfo(buildVersion(), runtime.Version())
	telemetry.SetProcessStart(float64(time.Now().UnixNano()) / 1e9)
	cfg.Telemetry = telemetry
	if *debug {
		cfg.FlightRecorder = silkroad.NewFlightRecorder(silkroad.FlightRecorderConfig{
			SampleEvery: *sampleEvery,
		})
	}
	if *sloInterval > 0 {
		cfg.SLO = &silkroad.SLOConfig{Interval: silkroad.Duration((*sloInterval).Nanoseconds())}
	}
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Bootstrap the desired state: either the -config spec file, or the
	// -vip/-dips flags folded into a one-VIP spec. Both go through the same
	// Apply path, so a later PUT /v1/spec or config reload diffs cleanly
	// against whatever we started from.
	src := &specSource{}
	if *configFlag != "" {
		if err := applySpecFile(sw, *configFlag); err != nil {
			log.Fatalf("silkroadd: -config %s: %v", *configFlag, err)
		}
		src.set("file:"+*configFlag, "")
	} else {
		var pool []string
		for _, d := range strings.Split(*dipsFlag, ",") {
			pool = append(pool, strings.TrimSpace(d))
		}
		spec := &silkroad.ClusterSpec{
			Version: silkroad.SpecVersion,
			VIPs:    []silkroad.VIPSpec{{VIP: *vipFlag, Pool: pool}},
		}
		if _, err := sw.Apply(sw.Now(), spec); err != nil {
			log.Fatalf("silkroadd: bad -vip/-dips: %v", err)
		}
		src.set("flags", "")
	}
	self, err := netip.ParseAddr(*selfAddr)
	if err != nil {
		log.Fatalf("silkroadd: bad -self: %v", err)
	}
	if *mode != "rewrite" && *mode != "ipip" {
		log.Fatalf("silkroadd: bad -mode %q", *mode)
	}
	for _, st := range sw.VIPStatuses() {
		log.Printf("silkroadd: announcing %s [%s] (%s mode, generation %d)",
			st.VIP, st.Condition, *mode, sw.SpecGeneration())
	}

	tun, err := silkroad.NewTunnel(silkroad.TunnelConfig{
		Switch:    sw,
		Listen:    *listen,
		Mode:      *mode,
		Self:      self,
		BatchSize: *batch,
		Logf:      log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tun.Close()
	log.Printf("silkroadd: listening on %v", tun.LocalAddr())

	// Lifecycle: ctx is cancelled by SIGINT/SIGTERM. The event runtime, the
	// metrics server and the tunnel loop all key off it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The wall-clock event runtime: learning-filter drains, CPU insertions,
	// update transitions and aging run autonomously from here on.
	runDone := make(chan error, 1)
	go func() { runDone <- sw.Run(ctx) }()

	// Periodic stats as a runtime task (replaces the old unstoppable
	// time.Tick goroutine, which leaked its ticker for the process lifetime).
	stopStats := sw.Every(silkroad.Duration((*stats).Nanoseconds()), func(now silkroad.Time) {
		st := sw.Stats()
		log.Printf("stats: packets=%d hits=%d misses=%d conns=%d sram=%dB",
			st.Dataplane.Packets, st.Dataplane.ConnHits, st.Dataplane.ConnMisses,
			st.Connections, st.MemoryBytes)
	})

	// Config-file watch: poll the spec file's mtime on the switch runtime
	// and re-apply on change. A broken edit is logged and reported via
	// /configz; the switch keeps serving the last good spec.
	stopConfig := func() {}
	if *configFlag != "" {
		var lastMod time.Time
		if fi, err := os.Stat(*configFlag); err == nil {
			lastMod = fi.ModTime()
		}
		stopConfig = sw.Every(silkroad.Duration((*configPoll).Nanoseconds()), func(now silkroad.Time) {
			fi, err := os.Stat(*configFlag)
			if err != nil {
				return
			}
			if fi.ModTime().Equal(lastMod) {
				return
			}
			lastMod = fi.ModTime()
			if err := applySpecFile(sw, *configFlag); err != nil {
				log.Printf("silkroadd: config reload %s: %v", *configFlag, err)
				src.set("file:"+*configFlag, err.Error())
				return
			}
			src.set("file:"+*configFlag, "")
			log.Printf("silkroadd: applied %s (generation %d)", *configFlag, sw.SpecGeneration())
		})
	}

	var srv *http.Server
	if *metricsAddr != "" {
		if *debug {
			log.Printf("silkroadd: debug surface on http://%s/debug/silkroad/ (pprof at /debug/pprof/)", *metricsAddr)
		}
		srv = &http.Server{Addr: *metricsAddr, Handler: newMux(sw, telemetry, tun, src, *debug)}
		go func() {
			log.Printf("silkroadd: serving Prometheus metrics on http://%s/metrics", *metricsAddr)
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("silkroadd: metrics server: %v", err)
			}
		}()
	}

	// The tunnel loop: whatever the socket has queued feeds ProcessFramesInto,
	// in-place rewrite or encap at TX. Blocks until the context falls.
	if err := tun.Run(ctx); err != nil {
		log.Printf("silkroadd: tunnel: %v", err)
	}

	// Graceful shutdown: stop periodic work, wait for the runtime's final
	// catch-up pass, drain the metrics server, then report.
	log.Printf("silkroadd: shutting down")
	stopStats()
	stopConfig()
	if err := <-runDone; err != nil {
		log.Printf("silkroadd: runtime: %v", err)
	}
	if srv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("silkroadd: metrics server shutdown: %v", err)
		}
		cancel()
	}
	st := sw.Stats()
	ts := tun.Stats()
	fmt.Printf("final stats: packets=%d hits=%d misses=%d inserted=%d conns=%d rx=%d fwd=%d drop=%d\n",
		st.Dataplane.Packets, st.Dataplane.ConnHits, st.Dataplane.ConnMisses,
		st.Controlplane.Inserted, st.Connections, ts.RxPackets, ts.Forwarded, ts.Dropped)
	if err := silkroad.WritePrometheus(os.Stdout, metricsSnapshot(sw, telemetry, tun)); err != nil {
		log.Printf("silkroadd: final metrics snapshot: %v", err)
	}
}
