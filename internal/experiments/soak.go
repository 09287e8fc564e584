package experiments

// The soak driver: what the chaos, reconcile, upgrade and SLO soaks share.
// A soak is a seeded scenario whose report derives from virtual time and
// seeded randomness alone, so the same (scale, seed) must reproduce it byte
// for byte. runSoak makes a soak an experiment that insists on that; the
// verdict collects a report's failed invariants.
//
// The chaos, reconcile and upgrade soaks are each a target adapter and a
// script, built from (scale, seed) and played by one tick loop, soak.run.
// The script is a value: a tick length, a flow life and revisit stride, a
// fault plan, and a sorted list of soakOps, which print as Go literals that
// replay. An op brings arrivals and a kind for the target to apply: advance
// only (the zero kind), bootstrap check, spec generation, member failure and
// restore, out-of-band pool edit, drift scan, churn update, upgrade start.
// The flow book schedules the connections, pins each to what the target's
// exact-tuple shadow says once it is established, and audits it against
// the shadow when its life is over.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"

	silkroad "repro"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// soakConnTarget is the connection count a soak sizes its tables for.
func soakConnTarget(scale float64) int { return max(int(2048*scale), 1024) }

// verdict is the last two fields of every soak report: each failed
// invariant, in the order its soak checks them, and whether none failed.
type verdict struct {
	Violations   []string `json:"invariant_violations"`
	InvariantsOK bool     `json:"invariants_ok"`
	replay       []soakOp // a scripted soak's ops, printed on a failure
}

// check records a failed invariant unless ok.
func (v *verdict) check(ok bool, format string, args ...any) {
	if !ok {
		v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
	}
}

// checkTraffic is the last two invariants of every flow-book soak: some
// flow established, something forwarded.
func (v *verdict) checkTraffic(established int, forwarded uint64) {
	v.check(established > 0, "no flow ever established")
	v.check(forwarded > 0, "nothing forwarded")
}

func (v *verdict) soakVerdict() *verdict { return v }

// soakReport is a soak's report: one embedding a verdict.
type soakReport interface{ soakVerdict() *verdict }

// judge runs a finished report's invariants, each calling check on the
// report, and records the verdict.
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
		err := fmt.Errorf("%s soak failed: %v (deterministic=%v)", id, v.Violations, deterministic)
		if v.replay != nil {
			err = fmt.Errorf("%w\n%s", err, formatScript(seed, v.replay))
		}
		return nil, err
	}
	rep.ArtifactName = artifact
	rep.Artifact = append(b1, '\n')
	return rep, nil
}

// soakTarget is the system under a scripted soak, behind its adapter. The
// injector plays the script's fault plan against it.
type soakTarget interface {
	faults.Target
	// advance runs the target's background work up to now.
	advance(now simtime.Time)
	// deliver hands the target a tick's packets, in order, and records
	// each answer in b.
	deliver(b *flowBook, now simtime.Time, pkts []packet)
	// shadow reads flow i's pin through the exact-tuple shadow.
	shadow(i int) (pin, bool)
	// end closes flow i's connection.
	end(now simtime.Time, i int)
	// apply performs op's kind, which is not opAdvance.
	apply(now simtime.Time, op soakOp) error
}

// opKind is what a soak op does on its tick besides bringing arrivals,
// named as the Go constant it is.
type opKind string

const (
	opAdvance   opKind = ""            // nothing: the target only advances to the tick
	opBootstrap opKind = "opBootstrap" // fail the run unless the fleet converged
	opApply     opKind = "opApply"     // Apply generation gen's spec (recSpecFor)
	opFail      opKind = "opFail"      // FailSwitch(member)
	opRestore   opKind = "opRestore"   // RestoreSwitch(member)
	opEdit      opKind = "opEdit"      // an out-of-band pool edit on member
	opScan      opKind = "opScan"      // a drift scan
	opChurn     opKind = "opChurn"     // swapPool(8, gen) on every in-service member holding the VIP
	opUpgrade   opKind = "opUpgrade"   // StartUpgrade with the target's upgrade config
)

// soakOp is one timed operation of a script. On tick at, after the target
// has advanced there, it brings arrive new flows (a traffic pulse) and the
// target applies its kind, with member and gen as operands.
type soakOp struct {
	at, arrive  int
	kind        opKind
	member, gen int
}

// String prints op as the Go composite literal that builds it: at, then
// every field that is not zero.
func (op soakOp) String() string {
	s := fmt.Sprintf("{at: %d", op.at)
	field := func(name string, v any, set bool) {
		if set {
			s += fmt.Sprintf(", %s: %v", name, v)
		}
	}
	field("arrive", op.arrive, op.arrive != 0)
	field("kind", op.kind, op.kind != opAdvance)
	field("member", op.member, op.member != 0)
	field("gen", op.gen, op.gen != 0)
	return s + "}"
}

// formatScript prints a soak's seed and its ops as a []soakOp literal, one
// op a line, which pastes back into a test and replays.
func formatScript(seed int64, ops []soakOp) string {
	s := fmt.Sprintf("seed %d, script []soakOp{\n", seed)
	for _, op := range ops {
		s += fmt.Sprintf("\t%v,\n", op)
	}
	return s + "}"
}

// pulses is a script's arrivals: n flows on each of the first burst ticks
// of every period in [0, load).
func pulses(load, n, burst, period int) []soakOp {
	var ops []soakOp
	for t := 0; t < load; t++ {
		if t%period < burst {
			ops = append(ops, soakOp{at: t, arrive: n})
		}
	}
	return ops
}

// jitter delays each of ops by a seeded draw from [0, 10) ticks: a fleet
// soak's arrivals, half a burst at most.
func jitter(seed int64, ops []soakOp) []soakOp {
	rng := rand.New(rand.NewSource(seed))
	for i := range ops {
		ops[i].at += rng.Intn(10)
	}
	return ops
}

// every places op on each tick of [from, to) that step divides.
func every(from, to, step int, op soakOp) []soakOp {
	var ops []soakOp
	for t := from; t < to; t++ {
		if t%step == 0 {
			op.at = t
			ops = append(ops, op)
		}
	}
	return ops
}

// script concatenates op lists and sorts them by tick; ops sharing a tick
// keep the order they were listed in.
func script(lists ...[]soakOp) []soakOp {
	ops := slices.Concat(lists...)
	slices.SortStableFunc(ops, func(a, b soakOp) int { return cmp.Compare(a.at, b.at) })
	return ops
}

// soak is one scripted run: a target and the script that drives it.
type soak struct {
	tg   soakTarget
	tick simtime.Duration
	// ticks is the loop's span: it runs every tick in [0, ticks) in full,
	// then only the ticks of the ops scheduled later, with no revisits.
	ticks int
	// until, if set, ends the loop on the first tick it holds for, right
	// after the target advanced there.
	until func(t int) bool
	ops   []soakOp // sorted by tick
	// excuse marks cold failover: a flow another member answered was
	// redirected, and is counted rather than held to its pin.
	excuse bool
	// finish closes the run after the loop, reading it into the report.
	finish func() error

	book flowBook
	inj  *faults.Injector
}

// newSoak starts a soak of tg that plays plan through an injector tracing
// into tr.
func newSoak(tg soakTarget, tr *soakTracer, plan faults.Plan, tick simtime.Duration, ticks, life, stride int) *soak {
	s := &soak{tg: tg, tick: tick, ticks: ticks, book: flowBook{life: life, stride: stride},
		inj: faults.NewInjector(plan, tg)}
	s.inj.SetTracer(tr)
	return s
}

// run plays the script, then finishes. On each tick it advances the
// injector and the target, runs the ops due, retires and audits the flows
// whose life is over, and delivers the tick's traffic: the revisits, then
// the arrivals.
func (s *soak) run() error {
	b, ops := &s.book, s.ops
	var pkts []packet
	for t := 0; t < s.ticks || len(ops) > 0; t++ {
		if t >= s.ticks {
			t = ops[0].at
		}
		now := simtime.Time(int64(t) * int64(s.tick))
		s.inj.Advance(now)
		s.tg.advance(now)
		if s.until != nil && s.until(t) {
			break
		}
		arrive := 0
		for ; len(ops) > 0 && ops[0].at == t; ops = ops[1:] {
			arrive += ops[0].arrive
			if ops[0].kind != opAdvance {
				if err := s.tg.apply(now, ops[0]); err != nil {
					return fmt.Errorf("%v: %w", ops[0], err)
				}
			}
		}
		b.retire(t, func(i int, f *flow) {
			b.audit(s.tg, s.excuse, i, f)
			s.tg.end(now, i)
		})
		pkts = b.traffic(t, arrive, t < s.ticks, pkts[:0])
		s.tg.deliver(b, now, pkts)
	}
	return s.finish()
}

// runScripted builds a scripted soak, runs it and judges its report.
func runScripted[R soakReport](build func(scale float64, seed int64) (*soak, R, error),
	scale float64, seed int64, invariants func(R)) (R, error) {
	var zero R
	s, rep, err := build(scale, seed)
	if err != nil {
		return zero, err
	}
	if err := s.run(); err != nil {
		return zero, fmt.Errorf("%w\n%s", err, formatScript(seed, s.ops))
	}
	rep.soakVerdict().replay = s.ops
	return judge(rep, invariants), nil
}

// faultTally reads the injector's faults_injected, faults_by_kind and
// faults_remaining.
func (s *soak) faultTally() (injected uint64, byKind map[string]uint64, remaining int) {
	m := s.inj.Metrics()
	byKind = make(map[string]uint64, len(m.ByKind))
	for k, n := range m.ByKind {
		byKind[k.String()] = n
	}
	return m.Injected, byKind, s.inj.Remaining()
}

// soakTracer is the telemetry every scripted soak attaches: a registry,
// whose counters the reports read, plus the handoff events by step, since
// the registry counts no finished or cancelled transfers. The counts are
// plain integers: the soaks that read them trace from one goroutine.
type soakTracer struct {
	*telemetry.Registry
	handoff [8]uint64 // by telemetry.HandoffStep
}

func newSoakTracer() *soakTracer { return &soakTracer{Registry: telemetry.NewRegistry()} }

func (t *soakTracer) Trace(e telemetry.Event) {
	if e.Kind == telemetry.KindHandoff && int(e.HandoffStep) < len(t.handoff) {
		t.handoff[e.HandoffStep]++
	}
	t.Registry.Trace(e)
}

// flowBook is a soak's connections. Flow i is expTuple(i); a flow is
// revisited every stride ticks and ends life ticks after its birth. The
// counters are what the reports read.
type flowBook struct {
	life, stride int

	flows []flow
	first int // oldest live flow

	established, moved, pccViolations, drops, midUpdate int
	packets, forwarded                                  uint64
}

// pin is what the exact-tuple shadow says of a connection: the member
// serving it and its pool version or DIP, as much as the target reads.
// Fields a target does not read stay zero on both sides of a comparison.
type pin struct {
	member  int
	version uint32
	dip     dataplane.DIP
}

// flow is one connection in a flow book.
type flow struct {
	born   int
	pinned bool
	pin    pin
	// moved marks a flow later answered otherwise than when pinned: by
	// another member (fleets), from an aliased ConnTable entry (chaos).
	moved     bool
	hit       bool          // chaos: the ConnTable has answered
	hitDIP    dataplane.DIP // chaos: the first ConnTable answer's DIP
	midUpdate bool          // its SYN landed in a pool update's recording window
}

// retire ends, oldest first, every flow at least life ticks old at tick t.
func (b *flowBook) retire(t int, end func(i int, f *flow)) {
	for ; b.first < len(b.flows) && b.flows[b.first].born <= t-b.life; b.first++ {
		end(b.first, &b.flows[b.first])
	}
}

// audit holds flow i to its pin one last time and counts it moved if it
// was. Under excuse a flow the shadow now places on another member moved
// too, and a move excuses a changed pin.
func (b *flowBook) audit(tg soakTarget, excuse bool, i int, f *flow) {
	moved := f.moved
	if f.pinned {
		p, ok := tg.shadow(i)
		moved = moved || excuse && ok && p.member != f.pin.member
		if ok && (p.version != f.pin.version || p.dip != f.pin.dip) && !(excuse && moved) {
			b.pccViolations++
		}
	}
	if moved {
		b.moved++
	}
}

// packet is one packet of a tick's traffic: flow i's SYN, or else a packet
// of its established traffic.
type packet struct {
	i   int
	syn bool
}

// traffic appends tick t's packets to pkts: with revisit, the 1/stride
// sample of the live flows; then the SYNs of n flows born at t.
func (b *flowBook) traffic(t, n int, revisit bool, pkts []packet) []packet {
	for i := b.first; revisit && i < len(b.flows); i++ {
		if i%b.stride == t%b.stride {
			pkts = append(pkts, packet{i: i})
		}
	}
	for k := 0; k < n; k++ {
		b.flows = append(b.flows, flow{born: t})
		pkts = append(pkts, packet{i: len(b.flows) - 1, syn: true})
	}
	return pkts
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

// netPacket is p on the wire.
func (p packet) netPacket() *netproto.Packet {
	if p.syn {
		return synPacket(p.i)
	}
	return &netproto.Packet{Tuple: expTuple(p.i), TCPFlags: netproto.FlagACK}
}

// swapPool is generation g's pool of a fleet soak's churn: expPool(6) with
// slot g%6 swapped for 10.net.0.g:20, so consecutive generations differ by
// exactly one DIP.
func swapPool(net byte, g int) []dataplane.DIP {
	pool := expPool(6)
	pool[g%len(pool)] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, net, 0, byte(g)}), 20)
	return pool
}

// fleetTarget adapts a cluster: packets go one at a time through the ECMP
// spray, and the shadow is the exact-tuple table of the member a tuple
// sprays to. A warm fleet moves flows between members on purpose (the
// upgrade's handoff), so it pins DIPs, since versions are member-local, and
// holds every answer to the pin; a cold one pins versions.
type fleetTarget struct {
	*silkroad.Cluster
	warm        bool
	upgrade     silkroad.UpgradeConfig // what opUpgrade starts
	upgrader    *silkroad.Upgrader     // the upgrade it started
	poolUpdates int                    // opChurn updates applied
	// midUntil ends the recording window of the last churn update: a SYN
	// sent before it is marked mid-update.
	midUntil simtime.Time
	// regressions is the most control-plane advances behind a member's
	// clock the fleet has summed after any tick.
	regressions uint64
}

// fleetMember is a soak fleet's member configuration: sized for the soak,
// seeded with it, tracing into tr, on a clock only the soak moves.
func fleetMember(scale float64, seed int64, tr telemetry.Tracer) silkroad.Config {
	cfg := silkroad.Defaults(soakConnTarget(scale))
	cfg.Dataplane.Seed = uint64(seed)
	cfg.Dataplane.Tracer = tr
	cfg.Clock = silkroad.NewManualClock(0)
	return cfg
}

func (ft *fleetTarget) advance(now simtime.Time) {
	ft.AdvanceTo(now)
	ft.regressions = max(ft.regressions, clockRegressions(ft.Cluster))
}

// clockRegressions sums the members' control-plane advances behind their
// clocks: work the fleet ran out of time order.
func clockRegressions(c *silkroad.Cluster) uint64 {
	var n uint64
	for i := 0; i < c.Switches(); i++ {
		n += c.Switch(i).Stats().Controlplane.ClockRegressions
	}
	return n
}

// checkClocks is every fleet soak's time-order invariant.
func (ft *fleetTarget) checkClocks(v *verdict) {
	n := max(ft.regressions, clockRegressions(ft.Cluster))
	v.check(n == 0, "%d control-plane advances ran behind a member's clock", n)
}

// deliver sends the packets one at a time. A flow is established once the
// shadow pins it; a warm fleet holds each later answer to the pin.
func (ft *fleetTarget) deliver(b *flowBook, now simtime.Time, pkts []packet) {
	var fr netproto.Frame
	for _, p := range pkts {
		p.netPacket().Frame(&fr)
		m, res := ft.ProcessFrame(now, &fr)
		fwd := res.Verdict == dataplane.VerdictForward
		b.sent(fwd)
		f := &b.flows[p.i]
		switch {
		case p.syn:
			f.midUpdate = now.Before(ft.midUntil)
		case !f.pinned:
			if pn, ok := ft.shadow(p.i); ok {
				f.pin, f.pinned = pn, true
				b.established++
				if f.midUpdate {
					b.midUpdate++
				}
			}
		default:
			if !fwd {
				b.drops++
			} else if ft.warm && res.DIP != f.pin.dip {
				b.pccViolations++
			}
			if m != f.pin.member {
				f.moved = true
			}
		}
	}
}

func (ft *fleetTarget) shadow(i int) (pin, bool) {
	m, v, dip, ok := ft.Shadow(expTuple(i))
	if ft.warm {
		return pin{member: m, dip: dip}, ok && dip.IsValid()
	}
	return pin{member: m, version: v}, ok
}

func (ft *fleetTarget) end(now simtime.Time, i int) { ft.EndConnection(now, expTuple(i)) }

func (ft *fleetTarget) apply(now simtime.Time, op soakOp) (err error) {
	switch op.kind {
	case opBootstrap:
		if !ft.Converged() {
			err = fmt.Errorf("bootstrap never converged")
		}
	case opApply:
		_, err = ft.Apply(now, recSpecFor(op.gen))
	case opFail:
		err = ft.FailSwitch(now, op.member)
	case opRestore:
		err = ft.RestoreSwitch(op.member)
	case opEdit:
		// An operator bypassing the spec: drift for the next scan to revert.
		drifted := append(expPool(6), netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 9, 9}), 20))
		err = ft.Switch(op.member).Engine().RequestUpdate(now, expVIP(), drifted)
	case opScan:
		ft.DetectDrift(now)
	case opChurn:
		// A member down mid-rollout catches up through its re-announce.
		for i := 0; i < ft.Switches(); i++ {
			if eng := ft.Switch(i).Engine(); ft.Alive(i) && eng.Dataplane(0).HasVIP(expVIP()) {
				if err := eng.RequestUpdate(now, expVIP(), swapPool(8, op.gen)); err != nil {
					return fmt.Errorf("switch %d: %w", i, err)
				}
			}
		}
		ft.poolUpdates++
		ft.midUntil = now.Add(upUpdateWindow * upTick)
	case opUpgrade:
		ft.upgrader, err = ft.StartUpgrade(now, nil, ft.upgrade)
	default:
		err = fmt.Errorf("no fleet op %v", op.kind)
	}
	return err
}

// The fault target: "pipe" indices are cluster members, whose pipe 0 each
// fault hits; the member is re-read per call so faults land on the fresh
// switch after a RestoreSwitch.

func (ft *fleetTarget) NumPipes() int { return ft.Switches() }

func (ft *fleetTarget) StallCPU(now simtime.Time, m int, d simtime.Duration) {
	ft.Switch(m).Engine().StallCPU(now, 0, d)
}

func (ft *fleetTarget) SetInsertRateScale(m int, scale float64) {
	ft.Switch(m).Engine().SetInsertRateScale(0, scale)
}

func (ft *fleetTarget) SetConnTableLimit(m, limit int) {
	ft.Switch(m).Engine().SetConnTableLimit(0, limit)
}

func (ft *fleetTarget) SetLearnLoss(m int, rate float64, seed uint64) {
	ft.Switch(m).Engine().SetLearnLoss(0, rate, seed)
}
