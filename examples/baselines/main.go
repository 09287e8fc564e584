// Baseline comparison: run the same workload — a PoP-like cluster with
// frequent DIP pool updates — through SilkRoad, Duet (three migration
// policies), and a pure software load balancer, and print the Figure 5 /
// Figure 16 trade-off table: who breaks connections, and who pays for
// consistency with software capacity.
//
// Run with: go run ./examples/baselines
package main

import (
	"fmt"
	"log"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/duet"
	"repro/internal/flowsim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func main() {
	cfg := flowsim.Config{
		VIPs:          8,
		PoolSize:      16,
		ArrivalRate:   800,
		FlowClass:     workload.Hadoop,
		UpdatesPerMin: 30,
		Duration:      simtime.Duration(11 * simtime.Minute),
		Seed:          7,
		ClusterType:   workload.PoP,
	}
	fmt.Printf("workload: %d VIPs x %d DIPs, %.0f conns/s, %.0f updates/min, %v simulated\n\n",
		cfg.VIPs, cfg.PoolSize, cfg.ArrivalRate, cfg.UpdatesPerMin, cfg.Duration)
	fmt.Printf("%-26s %10s %12s %12s %10s\n", "balancer", "conns", "broken", "broken%", "SLB load")

	row := func(res flowsim.Results) {
		fmt.Printf("%-26s %10d %12d %11.4f%% %9.1f%%\n",
			res.Balancer, res.Conns, res.BrokenConns, 100*res.BrokenFraction(), 100*res.SLBLoadFraction)
	}

	// SilkRoad: per-connection state in the ASIC, 3-step PCC updates.
	sr, err := flowsim.NewSilkRoad("SilkRoad", dataplane.DefaultConfig(500_000), ctrlplane.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sim, err := flowsim.New(cfg, sr)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.AnnounceVIPs(sr.AddVIP); err != nil {
		log.Fatal(err)
	}
	row(sim.Run())

	// SilkRoad without the TransitTable (ablation).
	dcfg := dataplane.DefaultConfig(500_000)
	dcfg.DisableTransit = true
	nt, err := flowsim.NewSilkRoad("SilkRoad w/o TransitTable", dcfg, ctrlplane.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sim, _ = flowsim.New(cfg, nt)
	sim.AnnounceVIPs(nt.AddVIP)
	row(sim.Run())

	// Duet with its three migration policies.
	for _, p := range []duet.Policy{duet.Migrate10min, duet.Migrate1min, duet.MigratePCC} {
		bal := flowsim.NewDuet(p, 7)
		sim, _ = flowsim.New(cfg, bal)
		sim.AnnounceVIPs(bal.AddVIP)
		row(sim.Run())
	}

	// Pure software load balancer.
	slb := flowsim.NewSLB()
	sim, _ = flowsim.New(cfg, slb)
	sim.AnnounceVIPs(slb.AddVIP)
	row(sim.Run())

	fmt.Println("\nSilkRoad keeps every connection consistent with zero software detour;")
	fmt.Println("Duet trades broken connections against SLB capacity; the SLB is consistent")
	fmt.Println("but serves 100% of traffic in software.")
}
