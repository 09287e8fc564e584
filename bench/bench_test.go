package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	silkroad "repro"
	"repro/internal/netproto"
)

// smallOpt is a run a test can afford: a hundredth of the populations and
// of the packets.
func smallOpt(trace bool, dir string) options {
	return options{seed: 7, seconds: 10, scale: 0.01, trace: trace, outDir: dir}
}

// maxBound is the widest regression bound BENCHMARK.json may give a metric:
// the driver's ceiling. The ISSUE's 10% is out of reach on the shared host
// the baseline was taken on (README.md, Noise calibration).
const maxBound = 0.25

// TestContract compares ../BENCHMARK.json with the tables the program
// reports from: same workloads, same metric names, units and directions.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > maxBound)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
}

// TestSmoke runs all four workloads, untraced and traced, in a few seconds
// and checks the output's shape: every metric of the run's set printed
// exactly once with its unit, and a last line that is the driver's JSON.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(sp, smallOpt(trace, dir))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			var out bytes.Buffer
			rep.print(&out)
			lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				n := 0
				for _, l := range lines {
					if f := strings.Fields(l); len(f) >= 3 && f[0] == d.name && f[2] == d.unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s trace=%v: metric %s printed with its unit %d times, want once", sp.name, trace, d.name, n)
				}
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", sp.name, trace, err)
			}
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s trace=%v: JSON keys %v", sp.name, trace, keys)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the JSON, want %d", sp.name, trace, len(rep.Metrics), len(defs))
			}
			if rep.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", sp.name, trace, rep.Attempted)
			}
			// The gates on the harness share and the ledger are calibrated
			// at full size; at a hundredth only the counters must reconcile.
			for _, p := range rep.m.problems {
				if !strings.Contains(p, "harness share") && !strings.Contains(p, "ledger leaves") {
					t.Errorf("%s trace=%v: %s", sp.name, trace, p)
				}
			}
			if trace {
				if _, err := os.Stat(rep.m.tracePath); err != nil {
					t.Errorf("%s: trace file: %v", sp.name, err)
				}
			}
		}
	}
}

// TestDeterminism: the same seed gives the same failures and the same
// value of every counter-made metric on the in-process workloads; another
// seed gives other connections.
func TestDeterminism(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs {
		if sp.tunnel {
			continue
		}
		a, err := runWorkload(sp, smallOpt(true, dir))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(sp, smallOpt(true, dir))
		if err != nil {
			t.Fatal(err)
		}
		if a.Failed != b.Failed || a.Attempted != b.Attempted || a.m.fail != b.m.fail {
			t.Errorf("%s: ops differ between two runs of one seed: %d/%d (%v) and %d/%d (%v)",
				sp.name, a.Failed, a.Attempted, a.m.fail, b.Failed, b.Attempted, b.m.fail)
		}
		for _, d := range perLayer {
			if d.exact && a.Metrics[d.name] != b.Metrics[d.name] {
				t.Errorf("%s: %s is %v then %v on one seed", sp.name, d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
			}
		}
	}
	sp := specByName("established").scaled(0.01)
	one, err := generate(sp, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := generate(sp, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := generate(sp, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.pkts, again.pkts) {
		t.Error("one seed generated two different packet tables")
	}
	if reflect.DeepEqual(one.tuples[:64], other.tuples[:64]) {
		t.Error("seeds 1 and 2 generated the same connections")
	}
}

// TestTunnelLateDatagrams gives the sink a deadline no datagram can meet, so
// that it counts them lost and they arrive afterwards, as after a stall of
// the host: the next pump must receive its own datagrams, not the strays,
// and the tunnel's counter must still reconcile with what was sent.
func TestTunnelLateDatagrams(t *testing.T) {
	sp := specByName("tunnel").scaled(0.01)
	rig, _, _, err := setUpTunnel(sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	// Few enough that strays and the next window fit the tunnel's receive
	// buffer together: nothing is dropped, only late.
	late, ids := rig.tr.residentIDs()[:32], rig.tr.residentIDs()[32:288]
	before := rig.tun.Stats().RxPackets
	rig.sent = 0

	defer func(d time.Duration) { lossDeadline = d }(lossDeadline)
	lossDeadline = time.Microsecond
	rig.pump(rig.gen, late, 1, nil, false)
	if rig.fail.lost == 0 {
		t.Fatal("no datagram was counted lost under a 1 us deadline")
	}
	lossDeadline = 100 * time.Millisecond
	var lat []uint32
	rig.pump(rig.gen, ids, tunnelWindow/2, &lat, false)
	if len(lat) != len(ids) {
		t.Errorf("second pump took %d datagrams for its own, sent %d", len(lat), len(ids))
	}
	// Had it taken strays for its own, as many of its own would still be on
	// their way.
	rig.sink.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := rig.sink.Read(rig.rxBuf); err == nil {
		t.Errorf("a datagram of %d bytes was still to come after the second pump returned", n)
	}
	if other := rig.fail.total() - rig.fail.lost; other != 0 {
		t.Errorf("failures besides the lost datagrams: %v", rig.fail)
	}
	if rx := int64(rig.tun.Stats().RxPackets - before); rx > rig.sent || rx < rig.sent-rig.fail.lost {
		t.Errorf("sent %d, lost %d, tunnel received %d", rig.sent, rig.fail.lost, rx)
	}
}

// slowed puts a switchable delay around the real system: perPacket of busy
// wait after every ProcessFramesInto, per frame, and perUpdate before every
// UpdatePool.
type slowed struct {
	realSystem
	on        *bool
	spent     *time.Duration // busy-waited so far: a spin overshoots what it is asked for
	perPacket time.Duration
	perUpdate time.Duration
}

func (s slowed) Process(now silkroad.Time, frames []netproto.Frame, results []silkroad.Result) {
	s.realSystem.Process(now, frames, results)
	if *s.on && s.perPacket > 0 {
		*s.spent += spin(s.perPacket * time.Duration(len(frames)))
	}
}

func (s slowed) UpdatePool(now silkroad.Time, vip silkroad.VIP, pool []silkroad.DIP) error {
	if *s.on && s.perUpdate > 0 {
		*s.spent += spin(s.perUpdate)
	}
	return s.realSystem.UpdatePool(now, vip, pool)
}

// spin busy-waits for at least d of wall-clock time and returns how long
// it took.
func spin(d time.Duration) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
	return time.Since(t0)
}

// slowdown sets workload name up at a hundredth of its size with the delay
// wrapper, then runs pairs of small chunks, one with the delay one without, and returns
// the median over the pairs of what the delay added per packet (ns), what
// was in fact busy-waited per packet (ns), the undelayed time per packet
// (ns), and the lone-latency medians (ns) with the delay off and on. Pairing adjacent chunks cancels the host's drift.
func slowdown(t *testing.T, name string, perPacket, perUpdate time.Duration) (added, injected, base, loneOff, loneOn float64) {
	t.Helper()
	sp := specByName(name).scaled(0.01)
	on := false
	var spent time.Duration
	const batches = 256
	res, err := setUp(sp, 3, 1, batches*batchLen, func(rs realSystem) system {
		return slowed{rs, &on, &spent, perPacket, perUpdate}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := res.h
	defer h.sw.Close()
	perPkt := func() float64 {
		c := h.runChunk(batches)
		return float64(c.wall) / float64(c.packets)
	}
	for i := 0; i < 8; i++ {
		perPkt()
	}
	var diffs, bases []float64
	spent = 0
	const pairs = 200
	for i := 0; i < pairs; i++ {
		// Delay off then on, and the other way round the next time, so a
		// trend in the work or in the host's speed cancels.
		var t [2]float64
		for _, on = range [2]bool{i%2 == 1, i%2 == 0} {
			k := 0
			if on {
				k = 1
			}
			t[k] = perPkt()
		}
		diffs = append(diffs, t[1]-t[0])
		bases = append(bases, t[0])
	}
	injected = float64(spent) / (pairs * batches * batchLen)
	// Lone latency, the delay off and on in alternating slices.
	var lone [2][]uint32
	for slice := 0; slice < 20; slice++ {
		on = slice%2 == 1
		lone[slice%2] = append(lone[slice%2], h.loneSlice(sp.loneSamples/10)...)
	}
	loneOff, loneOn = quantile(sortedNs(lone[0]), 0.5), quantile(sortedNs(lone[1]), 0.5)
	if h.fail.total() != 0 && name == "established" {
		t.Errorf("%s: failed operations under the delay wrapper: %v", name, h.fail)
	}
	return summarize(diffs).Med, injected, summarize(bases).Med, loneOff, loneOn
}

// TestSensitivity is the proof that the metrics move when, and only where,
// the code gets slower: 100 ns injected per packet takes the predicted
// amount off established's throughput and adds to its lone latency; 50 us
// injected into UpdatePool shows on poolupdate and not on established.
func TestSensitivity(t *testing.T) {
	const perPacket, perUpdate = 100 * time.Nanosecond, 50 * time.Microsecond

	added, injected, base, loneOff, loneOn := slowdown(t, "established", perPacket, 0)
	predictedDrop := 1 - base/(base+injected)
	drop := 1 - base/(base+added)
	t.Logf("established +%.1f ns/packet: %.1f ns/packet became %.1f; pps fell %.1f%%, predicted %.1f%%; lone p50 %.0f ns became %.0f",
		injected, base, base+added, 100*drop, 100*predictedDrop, loneOff, loneOn)
	if drop < 0.8*predictedDrop || drop > 1.2*predictedDrop {
		t.Errorf("established: +%.1f ns/packet moved pps by %.1f%%, predicted %.1f%% (want within a fifth)", injected, 100*drop, 100*predictedDrop)
	}
	if loneOn < loneOff+injected/2 {
		t.Errorf("established: lone latency %.0f ns did not rise with +%.1f ns/packet (was %.0f)", loneOn, injected, loneOff)
	}

	added, injected, base, _, _ = slowdown(t, "poolupdate", 0, perUpdate)
	t.Logf("poolupdate +50 us/update: %.1f ns/packet became %.1f, predicted +%.1f", base, base+added, injected)
	// Successive chunks of poolupdate differ in their work (which VIPs gain
	// and which lose a DIP, where the collector runs), so the estimate is
	// far noisier than established's: direction and order of magnitude.
	if added < 0.2*injected || added > 3*injected {
		t.Errorf("poolupdate: +50 us per UpdatePool added %.1f ns/packet, predicted %.1f", added, injected)
	}
	tolerance := injected // what poolupdate was given per packet: some 4% of established's time
	added, injected, base, _, _ = slowdown(t, "established", 0, perUpdate)
	t.Logf("established +50 us/update: %.1f ns/packet became %.1f (%.1f injected)", base, base+added, injected)
	if injected != 0 || added > tolerance || added < -tolerance {
		t.Errorf("established: a delay in UpdatePool moved it by %.1f ns/packet (%.1f injected)", added, injected)
	}
}
