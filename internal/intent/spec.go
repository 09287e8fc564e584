// Package intent is the declarative control plane: a versioned
// desired-state spec for a SilkRoad switch or fleet, and the reconciler
// that converges observed state onto it.
//
// The spec (ClusterSpec) names every VIP with its DIP pool, meter and
// generation counter; operators hand whole specs to Switch.Apply /
// Cluster.Apply (or silkroadd's -config file and PUT /v1/spec endpoint)
// instead of scripting imperative AddVIP/AddDIP/UpdatePool sequences. The
// reconciler diffs desired against observed state, drives convergence
// through a bounded per-key workqueue with retry/backoff, and reports
// per-VIP status conditions (Applied/Degraded/Error) with the observed
// generation — the kube-style controller shape, sized for a switch fleet.
//
// Fleet rollouts (ClusterReconciler) update one switch at a time, gated
// on the previous switch's pending-insert drain (§4.2's noPendingBefore
// discipline lifted to the fleet), and roll already-updated switches back
// to the prior generation when a mid-rollout switch fails.
package intent

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/dataplane"
	"repro/internal/netproto"
)

// SpecVersion is the schema version accepted in ClusterSpec.Version.
const SpecVersion = "silkroad/v1"

// VIPSpec declares one VIP's desired state.
type VIPSpec struct {
	// VIP is "addr:port" or "addr:port/proto"; proto is tcp (default) or
	// udp.
	VIP string `json:"vip"`
	// Pool is the desired DIP pool, each entry "addr:port". Order is
	// irrelevant: pools are compared as multisets.
	Pool []string `json:"pool"`
	// MeterBytesPerSec > 0 attaches a hardware meter (§4 SYN-flood
	// isolation); 0 leaves the VIP unmetered.
	MeterBytesPerSec float64 `json:"meter_bytes_per_sec,omitempty"`
}

// ClusterSpec is the versioned desired state of a switch or fleet.
type ClusterSpec struct {
	// Version must be SpecVersion.
	Version string `json:"version"`
	// Generation orders specs: a spec with a generation lower than the
	// last applied one is rejected as stale. 0 auto-assigns last+1.
	Generation uint64 `json:"generation,omitempty"`
	// VIPs is the complete desired VIP set; a VIP absent here is removed.
	VIPs []VIPSpec `json:"vips"`
}

// Clone returns a deep copy of the spec.
func (s *ClusterSpec) Clone() *ClusterSpec {
	if s == nil {
		return nil
	}
	out := &ClusterSpec{Version: s.Version, Generation: s.Generation}
	out.VIPs = make([]VIPSpec, len(s.VIPs))
	for i, v := range s.VIPs {
		out.VIPs[i] = v
		out.VIPs[i].Pool = append([]string(nil), v.Pool...)
	}
	return out
}

// FieldError locates one validation failure in a spec.
type FieldError struct {
	Field string `json:"field"` // e.g. "vips[2].pool[0]"
	Msg   string `json:"msg"`
}

// ValidationError collects every FieldError found in a spec, so callers
// (and silkroadd's 422 response) can report them all at once.
type ValidationError struct {
	Errors []FieldError `json:"errors"`
}

// Error implements error.
func (e *ValidationError) Error() string {
	if len(e.Errors) == 0 {
		return "intent: invalid spec"
	}
	parts := make([]string, len(e.Errors))
	for i, fe := range e.Errors {
		parts[i] = fe.Field + ": " + fe.Msg
	}
	return "intent: invalid spec: " + strings.Join(parts, "; ")
}

// ParseSpec decodes a JSON spec strictly (unknown fields are errors, so a
// typo'd key fails loudly instead of silently dropping config).
func ParseSpec(data []byte) (*ClusterSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s ClusterSpec
	if err := dec.Decode(&s); err != nil {
		return nil, &ValidationError{Errors: []FieldError{{Field: "", Msg: err.Error()}}}
	}
	return &s, nil
}

// ParseVIP parses "addr:port" or "addr:port/proto" into a dataplane VIP.
func ParseVIP(s string) (dataplane.VIP, error) {
	addr, proto := s, "tcp"
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		addr, proto = s[:i], s[i+1:]
	}
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return dataplane.VIP{}, fmt.Errorf("bad addr:port %q: %v", addr, err)
	}
	var p netproto.Proto
	switch strings.ToLower(proto) {
	case "tcp":
		p = netproto.ProtoTCP
	case "udp":
		p = netproto.ProtoUDP
	default:
		return dataplane.VIP{}, fmt.Errorf("bad proto %q (want tcp or udp)", proto)
	}
	return dataplane.VIP{Addr: ap.Addr(), Port: ap.Port(), Proto: p}, nil
}

// FormatVIP renders a VIP the way specs and statuses spell it
// (addr:port/proto, matching telemetry.VIPKey.String).
func FormatVIP(v dataplane.VIP) string { return v.String() }

// VIPDesired is one VIP's normalized desired state.
type VIPDesired struct {
	Pool             []dataplane.DIP
	MeterBytesPerSec float64
}

// Desired is a validated, normalized spec: the form the reconciler diffs
// against observed state.
type Desired struct {
	Generation uint64
	VIPs       map[dataplane.VIP]VIPDesired
}

// Keys returns the desired VIPs sorted by their spec spelling, for
// deterministic iteration.
func (d Desired) Keys() []dataplane.VIP {
	out := make([]dataplane.VIP, 0, len(d.VIPs))
	for v := range d.VIPs {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return FormatVIP(out[i]) < FormatVIP(out[j]) })
	return out
}

// Validate checks the spec and returns a *ValidationError listing every
// problem, or nil.
func (s *ClusterSpec) Validate() error {
	var errs []FieldError
	add := func(field, msg string) { errs = append(errs, FieldError{Field: field, Msg: msg}) }
	if s.Version != SpecVersion {
		add("version", fmt.Sprintf("unsupported version %q (want %q)", s.Version, SpecVersion))
	}
	seen := make(map[dataplane.VIP]bool, len(s.VIPs))
	for i, vs := range s.VIPs {
		field := fmt.Sprintf("vips[%d]", i)
		vip, err := ParseVIP(vs.VIP)
		if err != nil {
			add(field+".vip", err.Error())
		} else if seen[vip] {
			add(field+".vip", fmt.Sprintf("duplicate VIP %s", FormatVIP(vip)))
		} else {
			seen[vip] = true
		}
		if len(vs.Pool) == 0 {
			add(field+".pool", "empty DIP pool")
		}
		for j, ds := range vs.Pool {
			if _, err := netip.ParseAddrPort(ds); err != nil {
				add(fmt.Sprintf("%s.pool[%d]", field, j), err.Error())
			}
		}
		if vs.MeterBytesPerSec < 0 {
			add(field+".meter_bytes_per_sec", "must be >= 0")
		}
	}
	if len(errs) > 0 {
		return &ValidationError{Errors: errs}
	}
	return nil
}

// Normalize validates the spec and returns its Desired form. lastGen is
// the generation of the previously applied spec: a lower explicit
// generation is rejected as stale, and Generation == 0 auto-assigns
// lastGen+1.
func (s *ClusterSpec) Normalize(lastGen uint64) (Desired, error) {
	if err := s.Validate(); err != nil {
		return Desired{}, err
	}
	gen := s.Generation
	if gen == 0 {
		gen = lastGen + 1
	} else if gen < lastGen {
		return Desired{}, &ValidationError{Errors: []FieldError{{
			Field: "generation",
			Msg:   fmt.Sprintf("stale generation %d (last applied %d)", gen, lastGen),
		}}}
	}
	d := Desired{Generation: gen, VIPs: make(map[dataplane.VIP]VIPDesired, len(s.VIPs))}
	for _, vs := range s.VIPs {
		vip, _ := ParseVIP(vs.VIP)
		pool := make([]dataplane.DIP, len(vs.Pool))
		for j, ds := range vs.Pool {
			pool[j], _ = netip.ParseAddrPort(ds)
		}
		d.VIPs[vip] = VIPDesired{Pool: pool, MeterBytesPerSec: vs.MeterBytesPerSec}
	}
	return d, nil
}

// SamePool reports whether two pools hold the same DIPs as multisets
// (order-insensitive — the reconciler must not churn hardware when only
// the spec's listing order changed).
func SamePool(a, b []dataplane.DIP) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[dataplane.DIP]int, len(a))
	for _, d := range a {
		counts[d]++
	}
	for _, d := range b {
		counts[d]--
		if counts[d] < 0 {
			return false
		}
	}
	return true
}

// clonePool copies a pool slice (never aliasing caller memory into
// desired state).
func clonePool(pool []dataplane.DIP) []dataplane.DIP {
	return append([]dataplane.DIP(nil), pool...)
}
