// HTTP surface of silkroadd: Prometheus metrics, readiness, the
// declarative spec API, config introspection, the SLO report and alert
// board, and (optionally) the flight-recorder debug handlers. Split from
// main so handler behaviour is testable without sockets or a packet loop.
package main

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/pprof"

	silkroad "repro"
)

// metricsSnapshot is what /metrics exposes: the telemetry registry's
// instruments plus, when the daemon runs a tunnel, its I/O loop's counters
// as silkroad_tunnel_* (mean batch fill is rx_packets / rx_batches).
func metricsSnapshot(sw *silkroad.Switch, reg *silkroad.Telemetry, tun *silkroad.Tunnel) silkroad.TelemetrySnapshot {
	snap := reg.Snapshot(sw.Now())
	if tun != nil {
		st := tun.Stats()
		snap.Counters["silkroad_tunnel_rx_packets_total"] = st.RxPackets
		snap.Counters["silkroad_tunnel_rx_bytes_total"] = st.RxBytes
		snap.Counters["silkroad_tunnel_rx_batches_total"] = st.RxBatches
		snap.Counters["silkroad_tunnel_undecodable_total"] = st.Undecodable
		snap.Counters["silkroad_tunnel_forwarded_total"] = st.Forwarded
		snap.Counters["silkroad_tunnel_dropped_total"] = st.Dropped
		snap.Counters["silkroad_tunnel_tx_errors_total"] = st.TxErrors
		snap.Counters["silkroad_tunnel_tx_batches_total"] = st.TxBatches
	}
	return snap
}

// newMux wires every silkroadd HTTP endpoint onto a fresh mux. reg is the
// switch's telemetry registry (always non-nil in silkroadd); tun is the
// tunnel whose counters /metrics exports (nil: none); debug adds the
// flight-recorder and pprof surfaces.
func newMux(sw *silkroad.Switch, reg *silkroad.Telemetry, tun *silkroad.Tunnel, src *specSource, debug bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := silkroad.WritePrometheus(w, metricsSnapshot(sw, reg, tun)); err != nil {
			log.Printf("silkroadd: metrics write: %v", err)
		}
	})
	// Readiness: 200 while every pipe is below its occupancy watermark,
	// 503 with per-pipe detail once any pipe degrades to stateless
	// service — load-balancer health checks can drain the box before it
	// starts breaking PCC for new flows.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		st := sw.DegradedState()
		w.Header().Set("Content-Type", "application/json")
		if st.Degraded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if err := json.NewEncoder(w).Encode(st); err != nil {
			log.Printf("silkroadd: readyz write: %v", err)
		}
	})
	// Declarative config API: PUT a whole spec, read back what is
	// applied. Invalid specs answer 422 with the full error list and
	// touch nothing.
	mux.HandleFunc("/v1/spec", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			w.Header().Set("Allow", http.MethodPut)
			http.Error(w, "use PUT", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec, err := silkroad.ParseSpec(body)
		if err == nil {
			_, err = sw.Apply(sw.Now(), spec)
		}
		if err != nil {
			var verr *silkroad.SpecValidationError
			if errors.As(err, &verr) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusUnprocessableEntity)
				_ = json.NewEncoder(w).Encode(verr)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		src.set("api", "")
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Generation uint64               `json:"generation"`
			Statuses   []silkroad.VIPStatus `json:"statuses"`
		}{sw.SpecGeneration(), sw.VIPStatuses()})
	})
	// Read-only view of the applied configuration.
	mux.HandleFunc("/configz", func(w http.ResponseWriter, _ *http.Request) {
		source, lastErr := src.get()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Source     string                `json:"source"`
			LastError  string                `json:"last_error,omitempty"`
			Generation uint64                `json:"generation"`
			Converged  bool                  `json:"converged"`
			Statuses   []silkroad.VIPStatus  `json:"statuses"`
			Spec       *silkroad.ClusterSpec `json:"spec,omitempty"`
		}{source, lastErr, sw.SpecGeneration(), sw.Converged(),
			sw.VIPStatuses(), sw.AppliedSpec()})
	})
	// The full SLO report: windowed SLIs, per-VIP breakdown, occupancy
	// forecasts and the alert board, as one JSON document.
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		ev := sw.SLO()
		if ev == nil {
			http.Error(w, "slo evaluator disabled (-slo-interval 0)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ev.Report()); err != nil {
			log.Printf("silkroadd: slo write: %v", err)
		}
	})
	// The alert board and its recent transition history — what an
	// on-call pages on, with flight-recorder journal cursors linking
	// each transition back to the evidence.
	mux.HandleFunc("/alertz", func(w http.ResponseWriter, _ *http.Request) {
		ev := sw.SLO()
		if ev == nil {
			http.Error(w, "slo evaluator disabled (-slo-interval 0)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err := enc.Encode(struct {
			PageFiring bool                       `json:"page_firing"`
			Alerts     []silkroad.AlertStatus     `json:"alerts"`
			History    []silkroad.AlertTransition `json:"history"`
		}{ev.PageFiring(), ev.Alerts(), ev.History()})
		if err != nil {
			log.Printf("silkroadd: alertz write: %v", err)
		}
	})
	if debug {
		mux.Handle("/debug/silkroad/", sw.DebugHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
