package silkroad

import (
	"encoding/json"
	"net/http"

	"repro/internal/ctrlplane"
	"repro/internal/cuckoo"
	"repro/internal/dataplane"
	"repro/internal/learnfilter"
	"repro/internal/netproto"
)

// DebugHandler returns the live-introspection HTTP surface, intended to be
// mounted at /debug/silkroad/ on an operator-facing listener (cmd/silkroadd
// does this behind its -debug flag). Endpoints, all JSON:
//
//	trace?flow=F    one flow's recorded pipeline path (see Switch.Trace)
//	packets         the packet-trace ring, oldest first
//	journal         the control-plane event journal, oldest first
//	arm?flow=F      arm the flow filter for F
//	disarm?flow=F   disarm the flow filter for F
//	conntable       every ConnTable entry, per pipe
//	vips            every VIP with its versions and pools, per pipe
//	pending         the learning filter's pending set, per pipe
//	sram            per-stage ConnTable occupancy and SRAM breakdown, per pipe
//	intent          declarative desired state: generation, per-VIP status
//	                conditions, and the last applied spec
//
// Flow syntax is the FiveTuple rendering, "src:port->dst:port/proto"
// (e.g. "192.168.0.1:1234->10.0.0.1:80/tcp"); a "tcp:"/"udp:" prefix is
// also accepted. The trace/packets/journal/arm/disarm endpoints need a
// flight recorder attached (Config.FlightRecorder) and answer 503 without
// one; the table dumps always work.
func (s *Switch) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/silkroad/trace", s.handleTrace)
	mux.HandleFunc("/debug/silkroad/packets", s.handlePackets)
	mux.HandleFunc("/debug/silkroad/journal", s.handleJournal)
	mux.HandleFunc("/debug/silkroad/arm", s.handleArm)
	mux.HandleFunc("/debug/silkroad/disarm", s.handleDisarm)
	mux.HandleFunc("/debug/silkroad/conntable", s.handleConnTable)
	mux.HandleFunc("/debug/silkroad/vips", s.handleVIPs)
	mux.HandleFunc("/debug/silkroad/pending", s.handlePending)
	mux.HandleFunc("/debug/silkroad/sram", s.handleSRAM)
	mux.HandleFunc("/debug/silkroad/intent", s.handleIntent)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// flowParam parses the required ?flow= query parameter. On failure it has
// already written the error response and returns ok=false.
func flowParam(w http.ResponseWriter, req *http.Request) (netproto.FiveTuple, bool) {
	raw := req.URL.Query().Get("flow")
	if raw == "" {
		http.Error(w, "missing flow parameter (src:port->dst:port/proto)", http.StatusBadRequest)
		return netproto.FiveTuple{}, false
	}
	t, err := netproto.ParseFiveTuple(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return netproto.FiveTuple{}, false
	}
	return t, true
}

// recorder answers 503 and returns nil when no flight recorder is attached.
func (s *Switch) recorder(w http.ResponseWriter) *FlightRecorder {
	if s.rec == nil {
		http.Error(w, ErrNoRecorder.Error(), http.StatusServiceUnavailable)
		return nil
	}
	return s.rec
}

func (s *Switch) handleTrace(w http.ResponseWriter, req *http.Request) {
	rec := s.recorder(w)
	if rec == nil {
		return
	}
	t, ok := flowParam(w, req)
	if !ok {
		return
	}
	armed := false
	for _, a := range rec.Armed() {
		if a == t {
			armed = true
			break
		}
	}
	writeJSON(w, struct {
		Flow    string         `json:"flow"`
		Armed   bool           `json:"armed"`
		Records []PacketRecord `json:"records"`
	}{t.String(), armed, rec.FlowTrace(t)})
}

func (s *Switch) handlePackets(w http.ResponseWriter, req *http.Request) {
	rec := s.recorder(w)
	if rec == nil {
		return
	}
	writeJSON(w, struct {
		Total   uint64         `json:"total"` // records ever written
		Records []PacketRecord `json:"records"`
	}{rec.PacketSeq(), rec.Packets()})
}

func (s *Switch) handleJournal(w http.ResponseWriter, req *http.Request) {
	rec := s.recorder(w)
	if rec == nil {
		return
	}
	writeJSON(w, struct {
		Total   uint64          `json:"total"`
		Records []JournalRecord `json:"records"`
	}{rec.JournalSeq(), rec.Journal()})
}

func (s *Switch) handleArm(w http.ResponseWriter, req *http.Request) {
	rec := s.recorder(w)
	if rec == nil {
		return
	}
	t, ok := flowParam(w, req)
	if !ok {
		return
	}
	rec.Arm(t)
	writeJSON(w, struct {
		Flow  string `json:"flow"`
		Armed bool   `json:"armed"`
	}{t.String(), true})
}

func (s *Switch) handleDisarm(w http.ResponseWriter, req *http.Request) {
	rec := s.recorder(w)
	if rec == nil {
		return
	}
	t, ok := flowParam(w, req)
	if !ok {
		return
	}
	rec.Disarm(t)
	writeJSON(w, struct {
		Flow  string `json:"flow"`
		Armed bool   `json:"armed"`
	}{t.String(), false})
}

func (s *Switch) handleConnTable(w http.ResponseWriter, req *http.Request) {
	type pipeEntries struct {
		Pipe     int            `json:"pipe"`
		Len      int            `json:"len"`
		Capacity int            `json:"capacity"`
		Entries  []cuckoo.Entry `json:"entries"`
	}
	out := make([]pipeEntries, s.Pipes())
	for i := range out {
		s.eng.Inspect(i, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			ct := dp.ConnTable()
			out[i] = pipeEntries{
				Pipe:     i,
				Len:      ct.Len(),
				Capacity: ct.Capacity(),
				Entries:  ct.Entries(),
			}
		})
	}
	writeJSON(w, out)
}

func (s *Switch) handleVIPs(w http.ResponseWriter, req *http.Request) {
	type vipVersion struct {
		Version uint32   `json:"version"`
		Pool    []string `json:"pool"`
	}
	type vipInfo struct {
		VIP            string       `json:"vip"`
		CurrentVersion uint32       `json:"current_version"`
		InUpdate       bool         `json:"in_update"`
		Versions       []vipVersion `json:"versions"`
	}
	type pipeVIPs struct {
		Pipe int       `json:"pipe"`
		VIPs []vipInfo `json:"vips"`
	}
	out := make([]pipeVIPs, s.Pipes())
	for i := range out {
		s.eng.Inspect(i, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			pv := pipeVIPs{Pipe: i, VIPs: []vipInfo{}}
			for _, vip := range dp.VIPs() {
				cur, _ := dp.CurrentVersion(vip)
				info := vipInfo{
					VIP:            vip.String(),
					CurrentVersion: cur,
					InUpdate:       dp.InUpdate(vip),
				}
				vers, _ := dp.PoolVersions(vip)
				for _, v := range vers {
					pool, _ := dp.Pool(vip, v)
					dips := make([]string, len(pool))
					for j, d := range pool {
						dips[j] = d.String()
					}
					info.Versions = append(info.Versions, vipVersion{Version: v, Pool: dips})
				}
				pv.VIPs = append(pv.VIPs, info)
			}
			out[i] = pv
		})
	}
	writeJSON(w, out)
}

func (s *Switch) handlePending(w http.ResponseWriter, req *http.Request) {
	type pendingEntry struct {
		Flow    string `json:"flow"`
		KeyHash uint64 `json:"key_hash"`
		Digest  uint32 `json:"digest"`
		Version uint32 `json:"version"`
		At      Time   `json:"at_ns"`
	}
	type pipePending struct {
		Pipe    int            `json:"pipe"`
		Pending []pendingEntry `json:"pending"`
	}
	out := make([]pipePending, s.Pipes())
	for i := range out {
		s.eng.Inspect(i, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			var evs []learnfilter.Event
			if lf := dp.LearnFilter(); lf != nil {
				evs = lf.Pending()
			}
			pp := pipePending{Pipe: i, Pending: make([]pendingEntry, len(evs))}
			for j, ev := range evs {
				pp.Pending[j] = pendingEntry{
					Flow:    ev.Tuple.String(),
					KeyHash: ev.KeyHash,
					Digest:  ev.Digest,
					Version: ev.Version,
					At:      ev.At,
				}
			}
			out[i] = pp
		})
	}
	writeJSON(w, out)
}

func (s *Switch) handleIntent(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, struct {
		Generation uint64       `json:"generation"`
		Converged  bool         `json:"converged"`
		Statuses   []VIPStatus  `json:"statuses"`
		Spec       *ClusterSpec `json:"spec,omitempty"`
	}{s.SpecGeneration(), s.Converged(), s.VIPStatuses(), s.AppliedSpec()})
}

func (s *Switch) handleSRAM(w http.ResponseWriter, req *http.Request) {
	type pipeSRAM struct {
		Pipe         int                       `json:"pipe"`
		Stages       []cuckoo.StageStats       `json:"stages"`
		Memory       dataplane.MemoryBreakdown `json:"memory"`
		TotalBytes   int                       `json:"total_bytes"`
		OccupancyPct float64                   `json:"occupancy_pct"`
	}
	out := make([]pipeSRAM, s.Pipes())
	for i := range out {
		s.eng.Inspect(i, func(dp *dataplane.Switch, _ *ctrlplane.ControlPlane) {
			ct := dp.ConnTable()
			mem := dp.Memory()
			occ := 0.0
			if ct.Capacity() > 0 {
				occ = 100 * float64(ct.Len()) / float64(ct.Capacity())
			}
			out[i] = pipeSRAM{
				Pipe:         i,
				Stages:       ct.StageOccupancy(),
				Memory:       mem,
				TotalBytes:   mem.Total(),
				OccupancyPct: occ,
			}
		})
	}
	writeJSON(w, out)
}
