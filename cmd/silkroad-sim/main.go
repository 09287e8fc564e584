// Command silkroad-sim runs custom flow-level simulations against any of
// the implemented load balancer designs and prints the PCC/SLB-load
// results — the free-form companion to cmd/silkroad-bench's fixed figures.
//
//	silkroad-sim -balancer silkroad -rate 2000 -updates 30 -duration 1m
//	silkroad-sim -balancer duet-1min -rate 500 -updates 50 -traffic cache
//	silkroad-sim -balancer all -ipv6
//
// Balancers: silkroad, silkroad-notransit, duet-10min, duet-1min,
// duet-pcc, slb, or all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/duet"
	"repro/internal/flowsim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func main() {
	balancer := flag.String("balancer", "silkroad", "design under test (or 'all')")
	vips := flag.Int("vips", 16, "number of VIPs")
	poolSize := flag.Int("pool", 16, "DIPs per VIP")
	rate := flag.Float64("rate", 2000, "new connections per second")
	updates := flag.Float64("updates", 10, "DIP pool updates per minute")
	duration := flag.Duration("duration", 30*time.Second, "simulated (virtual) time")
	traffic := flag.String("traffic", "hadoop", "flow duration class: hadoop (10s median) or cache (4.5min)")
	ipv6 := flag.Bool("ipv6", false, "IPv6 workload (37-byte connection keys)")
	seed := flag.Int64("seed", 1, "random seed")
	connCap := flag.Int("conncap", 1_000_000, "SilkRoad ConnTable provisioning")
	transitBytes := flag.Int("transit", 256, "SilkRoad TransitTable size in bytes")
	learnTimeout := flag.Duration("learn", time.Millisecond, "learning filter timeout")
	flag.Parse()

	cfg := flowsim.Config{
		VIPs:          *vips,
		PoolSize:      *poolSize,
		ArrivalRate:   *rate,
		UpdatesPerMin: *updates,
		Duration:      simtime.Duration(duration.Nanoseconds()),
		Seed:          *seed,
		IPv6:          *ipv6,
		ClusterType:   workload.PoP,
	}
	switch *traffic {
	case "hadoop":
		cfg.FlowClass = workload.Hadoop
	case "cache":
		cfg.FlowClass = workload.Cache
	default:
		fmt.Fprintf(os.Stderr, "silkroad-sim: unknown traffic class %q\n", *traffic)
		os.Exit(2)
	}

	names := []string{*balancer}
	if *balancer == "all" {
		names = []string{"silkroad", "silkroad-notransit", "duet-10min", "duet-1min", "duet-pcc", "slb"}
	}
	fmt.Printf("workload: %d VIPs x %d DIPs, %.0f conns/s, %.0f updates/min, %v, %s flows, ipv6=%v\n\n",
		cfg.VIPs, cfg.PoolSize, cfg.ArrivalRate, cfg.UpdatesPerMin, *duration, *traffic, *ipv6)

	for _, name := range names {
		bal, announce, err := makeBalancer(name, *connCap, *transitBytes,
			simtime.Duration(learnTimeout.Nanoseconds()), uint64(*seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "silkroad-sim: %v\n", err)
			os.Exit(2)
		}
		sim, err := flowsim.New(cfg, bal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "silkroad-sim: %v\n", err)
			os.Exit(1)
		}
		if err := sim.AnnounceVIPs(announce); err != nil {
			fmt.Fprintf(os.Stderr, "silkroad-sim: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		res := sim.Run()
		fmt.Printf("%s   (%.1fs wall)\n", res, time.Since(start).Seconds())
	}
}

// makeBalancer constructs the named design.
func makeBalancer(name string, connCap, transitBytes int, learnTimeout simtime.Duration, seed uint64) (flowsim.Balancer, func(dataplane.VIP, []dataplane.DIP) error, error) {
	mkSilkroad := func(label string, disableTransit bool) (flowsim.Balancer, func(dataplane.VIP, []dataplane.DIP) error, error) {
		dcfg := dataplane.DefaultConfig(connCap)
		dcfg.TransitTableBytes = transitBytes
		dcfg.LearnFilterTimeout = learnTimeout
		dcfg.DisableTransit = disableTransit
		b, err := flowsim.NewSilkRoad(label, dcfg, ctrlplane.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		return b, b.AddVIP, nil
	}
	switch name {
	case "silkroad":
		return mkSilkroad("SilkRoad", false)
	case "silkroad-notransit":
		return mkSilkroad("SilkRoad w/o TransitTable", true)
	case "duet-10min":
		b := flowsim.NewDuet(duet.Migrate10min, seed)
		return b, b.AddVIP, nil
	case "duet-1min":
		b := flowsim.NewDuet(duet.Migrate1min, seed)
		return b, b.AddVIP, nil
	case "duet-pcc":
		b := flowsim.NewDuet(duet.MigratePCC, seed)
		return b, b.AddVIP, nil
	case "slb":
		b := flowsim.NewSLB()
		return b, b.AddVIP, nil
	default:
		return nil, nil, fmt.Errorf("unknown balancer %q", name)
	}
}
