// Command bench is the repository's benchmark: four fixed-work workloads
// over the SilkRoad switch, five end-to-end metrics on each, and (with
// -trace 1) a span trace and stage ledger that give the per-layer metrics.
// README.md describes the workloads, the metrics and how to run it;
// ../BENCHMARK.json is its contract with the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: established, newconn, poolupdate or tunnel (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the generated traffic: same seed, same packets and same counts")
		seconds  = flag.Float64("seconds", 10, "nominal length of the saturation phase; it fixes the packet count, the run is not stopped by a timer")
		trace    = flag.Int("trace", 0, "1: record spans, take the stage ledger and report the per-layer metrics instead of the end-to-end ones")
		scale    = flag.Float64("scale", 1, "shrink populations and packet counts (tests and smoke runs)")
		repeat   = flag.Int("repeat", 1, "noise calibration: run N times, on seeds seed..seed+N-1, and tabulate each end-to-end metric")
		out      = flag.String("out", "bench/out", "directory the trace files are written to")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || *scale <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	run := specs
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []*spec{sp}
	}
	opt := options{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, outDir: *out}

	ok := true
	table := newRepeatTable()
	for i := 0; i < *repeat; i++ {
		o := opt
		o.seed += int64(i)
		for _, sp := range run {
			rep, err := runWorkload(sp, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				os.Exit(1)
			}
			rep.print(os.Stdout)
			table.add(rep)
			ok = ok && rep.Correct
		}
	}
	if *repeat > 1 {
		table.print(os.Stdout)
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload once and turns it into a report.
func runWorkload(sp *spec, opt options) (*report, error) {
	sp = sp.scaled(opt.scale)
	var m *measured
	var err error
	if sp.tunnel {
		m, err = runTunnel(sp, opt)
	} else {
		m, err = runInProcess(sp, opt)
	}
	if err != nil {
		return nil, err
	}
	return newReport(m), nil
}

// hostRecord is where a run's numbers were taken; every report prints it.
type hostRecord struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	Go         string
	Kernel     string
}

func host() hostRecord {
	h := hostRecord{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, found := strings.CutPrefix(line, "model name"); found {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

func (h hostRecord) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s", h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Kernel)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's result. Its JSON form is the driver's contract:
// exactly the keys correct, attempted, failed and metrics.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	m    *measured
	defs []metricDef // Metrics' names, in table order
	// e2e is the end-to-end set, which a traced run prints for reading and
	// -repeat tabulates, though its JSON carries the per-layer set.
	e2e map[string]float64
}

func newReport(m *measured) *report {
	r := &report{Attempted: m.attempted, Failed: m.fail.total(), Metrics: map[string]value{}, m: m}
	r.e2e = endToEndValues(m)
	vals, defs := r.e2e, endToEnd
	if m.opt.trace {
		vals, defs = layerValues(m), perLayer
		if rest, whole := vals["ledger.unaccounted_ns"], m.lg.whole; m.sp.name == "established" && (rest > maxUnaccounted*whole || rest < -maxUnaccounted*whole) {
			m.problem("ledger leaves %.1f ns of %.1f ns per packet unaccounted, more than %.0f%%", rest, whole, 100*maxUnaccounted)
		}
	}
	for _, d := range defs {
		r.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	r.defs = defs
	r.Correct = len(m.problems) == 0
	return r
}

// print writes the report for people, then the one JSON line the driver
// reads, last.
func (r *report) print(w io.Writer) {
	m := r.m
	mode := "untraced: end-to-end metrics"
	if m.opt.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g scale=%g  (%s)\n", m.sp.name, m.opt.seed, m.opt.seconds, m.opt.scale, mode)
	fmt.Fprintf(w, "   why: %s\n", m.sp.why)
	fmt.Fprintf(w, "   host: %v\n", host())
	if m.sp.tunnel {
		fmt.Fprintf(w, "   path: real UDP sockets on the loopback interface, window %d, no real link crossed\n", tunnelWindow)
	}
	pps := summarize(m.untracedPPS())
	fmt.Fprintf(w, "   saturation: %d chunks of %d packets in %.1f s with the lone slices; pps quiet %.0f, median %.0f, quartiles %.0f .. %.0f (IQR %.2f%% of median)\n",
		len(m.chunks), m.chunks[0].packets, m.wall.Seconds(), quietRate(m.untracedPPS()), pps.Med, pps.Q1, pps.Q3, 100*pps.iqrShare())
	lone := sortedNs(m.lone)
	fmt.Fprintf(w, "   lone: %d samples in %d slices, p10 %.3f us, p25 %.3f, p50 %.3f, p75 %.3f, p99 %.3f; quiet slice median %.3f;  set-ups: %.3f s\n",
		len(lone), len(m.loneMed), quantile(lone, 0.1)/1e3, quantile(lone, 0.25)/1e3, quantile(lone, 0.5)/1e3,
		quantile(lone, 0.75)/1e3, quantile(lone, 0.99)/1e3, quiet(m.loneMed)/1e3, m.setups)
	fmt.Fprintf(w, "   connections %d, ops_attempted %d, ops_failed %d (%v)\n", m.conns, r.Attempted, r.Failed, m.fail)
	if !m.sp.tunnel {
		fmt.Fprintf(w, "   null harness: %.2f ns/packet, %.2f%% of the real %.1f ns/packet\n",
			m.nullNs, 100*m.nullNs/m.wallPerPacket(false), m.wallPerPacket(false))
	}
	if m.opt.trace {
		// For reading only: a traced run's JSON carries the per-layer set.
		fmt.Fprintf(w, "   trace: %s (%d spans)\n", m.tracePath, len(m.rec.spans))
		for _, d := range endToEnd {
			fmt.Fprintf(w, "   (end-to-end, traced run, not reported) %-22s %14.4f %s\n", d.name, r.e2e[d.name], d.unit)
		}
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "   %-38s %16.4f %-6s (%s is better)\n", d.name, r.Metrics[d.name].Value, d.unit, d.better)
	}
	for _, p := range m.problems {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic("bench: report does not marshal: " + err.Error()) // only finite floats and strings go in
	}
	fmt.Fprintf(w, "%s\n", line)
}

// repeatTable collects the end-to-end metrics of repeated runs (-repeat):
// per workload and metric the values, their median and quartiles and the
// worst pairwise relative deviation, from which BENCHMARK.json's bounds
// are calibrated.
type repeatTable struct {
	vals map[string][]float64 // "workload/metric" -> one value per run
}

func newRepeatTable() *repeatTable { return &repeatTable{vals: map[string][]float64{}} }

func (t *repeatTable) add(r *report) {
	for _, d := range endToEnd {
		key := r.m.sp.name + "/" + d.name
		t.vals[key] = append(t.vals[key], r.e2e[d.name])
	}
}

func (t *repeatTable) print(w io.Writer) {
	keys := make([]string, 0, len(t.vals))
	for k := range t.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "== noise calibration\n%-34s %14s %14s %14s %9s %9s  values\n", "workload/metric", "median", "q1", "q3", "iqr/med", "worst")
	for _, k := range keys {
		vs := t.vals[k]
		s := summarize(vs)
		worst := 0.0
		for i := range vs {
			for j := range vs {
				if vs[j] != 0 {
					if d := (vs[i] - vs[j]) / vs[j]; d > worst {
						worst = d
					}
				}
			}
		}
		fmt.Fprintf(w, "%-34s %14.4f %14.4f %14.4f %8.2f%% %8.2f%%  %.4f\n", k, s.Med, s.Q1, s.Q3, 100*s.iqrShare(), 100*worst, vs)
	}
}
