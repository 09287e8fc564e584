package experiments

// The soak harness: what the chaos, reconcile, upgrade and SLO soaks share.
// A soak is a seeded scenario whose report derives from virtual time and
// seeded randomness alone, so the same (scale, seed) must reproduce it byte
// for byte. runSoak makes a soak an experiment that insists on that; the
// verdict collects a report's failed invariants; the flow book schedules a
// soak's connections and counts their packets.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// soakConnTarget is the connection count a soak sizes its tables for.
func soakConnTarget(scale float64) int { return max(int(2048*scale), 1024) }

// verdict is the last two fields of every soak report: each failed
// invariant, in the order its soak checks them, and whether none failed.
type verdict struct {
	Violations   []string `json:"invariant_violations"`
	InvariantsOK bool     `json:"invariants_ok"`
}

// fail records one failed invariant.
func (v *verdict) fail(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

func (v *verdict) soakVerdict() *verdict { return v }

// soakReport is a soak's report: one embedding a verdict.
type soakReport interface{ soakVerdict() *verdict }

// judge runs a finished report's invariants, each calling fail on the
// report for what it finds broken, and records the verdict.
func judge[R soakReport](r R, invariants func(R)) R {
	invariants(r)
	v := r.soakVerdict()
	v.InvariantsOK = len(v.Violations) == 0
	return r
}

// runSoak is a soak as a registered experiment: it runs the soak twice with
// the same seed, prints summary's lines, the verdict and whether the two
// reports were the same bytes, and fails unless the invariants held and they
// were. The first report is emitted as the artifact.
func runSoak[R soakReport](id, title, artifact string, scale float64, seed int64,
	run func(scale float64, seed int64) (R, error), summary func(rep *Report, r R)) (*Report, error) {
	r1, err := run(scale, seed)
	if err != nil {
		return nil, err
	}
	b1, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	r2, err := run(scale, seed)
	if err != nil {
		return nil, err
	}
	b2, err := json.MarshalIndent(r2, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	deterministic := bytes.Equal(b1, b2)

	rep := &Report{ID: id, Title: title}
	summary(rep, r1)
	v := r1.soakVerdict()
	if v.InvariantsOK {
		rep.Printf("invariants: all hold")
	} else {
		for _, s := range v.Violations {
			rep.Printf("INVARIANT VIOLATED: %s", s)
		}
	}
	if deterministic {
		rep.Printf("determinism: second run with seed %d reproduced the report byte for byte", seed)
	} else {
		rep.Printf("DETERMINISM VIOLATED: same seed produced a different report")
	}
	if !v.InvariantsOK || !deterministic {
		return nil, fmt.Errorf("%s soak failed: %v (deterministic=%v)", id, v.Violations, deterministic)
	}
	rep.ArtifactName = artifact
	rep.Artifact = append(b1, '\n')
	return rep, nil
}

// faultTally reads an injector's faults_injected, faults_by_kind and
// faults_remaining.
func faultTally(inj *faults.Injector) (injected uint64, byKind map[string]uint64, remaining int) {
	m := inj.Metrics()
	byKind = make(map[string]uint64, len(m.ByKind))
	for k, n := range m.ByKind {
		byKind[k.String()] = n
	}
	return m.Injected, byKind, inj.Remaining()
}

// clusterFaultTarget adapts a fleet to the fault injector: "pipe" indices
// are cluster members. Accessors are re-read per call so faults land on the
// fresh planes after a RestoreSwitch.
type clusterFaultTarget struct{ c *cluster.Cluster }

func (t clusterFaultTarget) NumPipes() int { return t.c.Switches() }

func (t clusterFaultTarget) StallCPU(now simtime.Time, m int, d simtime.Duration) {
	t.c.Member(m).StallCPU(now, d)
}

func (t clusterFaultTarget) SetInsertRateScale(m int, scale float64) {
	t.c.Member(m).SetInsertRateScale(scale)
}

func (t clusterFaultTarget) SetConnTableLimit(m int, limit int) {
	t.c.Dataplane(m).SetConnTableLimit(limit)
}

func (t clusterFaultTarget) SetLearnLoss(m int, rate float64, seed uint64) {
	t.c.Dataplane(m).LearnFilter().SetLoss(rate, seed)
}

// flowBook schedules a soak's connections and counts their packets. Flow i
// is expTuple(i). Before tick load, perTick flows arrive on each of the
// first burst ticks of every period (burst == period: on every tick). Each
// tick revisits a 1/stride sample of the live flows, and a flow ends life
// ticks after its birth.
type flowBook struct {
	load, life, stride     int
	perTick, burst, period int

	flows []flow
	first int // oldest live flow

	established        int
	packets, forwarded uint64
}

// flow is one connection in a flow book. Its pin is what the soak's
// exact-tuple shadow said once the flow was established — the serving
// member and pool version (reconcile), the version (chaos), the member and
// DIP (upgrade) — and what the flow's last audit holds the shadow to.
type flow struct {
	born    int
	pinned  bool
	member  int
	version uint32
	dip     dataplane.DIP // upgrade: pinned; chaos: the first ConnTable hit's
	hit     bool          // chaos: ConnTable has answered for the flow
	// moved marks a flow later answered otherwise than when pinned: by
	// another member (fleets), from an aliased ConnTable entry (chaos).
	moved     bool
	midUpdate bool // upgrade: its SYN landed in an update's recording window
}

// retire ends, oldest first, every flow at least life ticks old at tick t:
// end audits the flow against the shadow one last time and closes its
// connection.
func (b *flowBook) retire(t int, end func(i int, f *flow)) {
	for ; b.first < len(b.flows) && b.flows[b.first].born <= t-b.life; b.first++ {
		end(b.first, &b.flows[b.first])
	}
}

// traffic calls send for tick t's packets: the 1/stride sample of the live
// flows, then the tick's arrivals.
func (b *flowBook) traffic(t int, send func(i int, syn bool)) {
	for i := b.first; i < len(b.flows); i++ {
		if i%b.stride == t%b.stride {
			send(i, false)
		}
	}
	if t < b.load && t%b.period < b.burst {
		b.arrive(t, b.perTick, send)
	}
}

// arrive adds n flows born at tick t, calling send for each one's SYN.
func (b *flowBook) arrive(t, n int, send func(i int, syn bool)) {
	for k := 0; k < n; k++ {
		b.flows = append(b.flows, flow{born: t})
		send(len(b.flows)-1, true)
	}
}

// sent counts one packet the soak sent.
func (b *flowBook) sent(forwarded bool) {
	b.packets++
	if forwarded {
		b.forwarded++
	}
}

// counts returns the report's flows_started, flows_established, packets
// and forwarded.
func (b *flowBook) counts() (started, established int, packets, forwarded uint64) {
	return len(b.flows), b.established, b.packets, b.forwarded
}

// flowPacket is flow i's SYN, or else a packet of its established traffic.
func flowPacket(i int, syn bool) *netproto.Packet {
	if syn {
		return synPacket(i)
	}
	return &netproto.Packet{Tuple: expTuple(i), TCPFlags: netproto.FlagACK}
}
