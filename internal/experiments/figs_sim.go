package experiments

import (
	"fmt"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/duet"
	"repro/internal/flowsim"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Fig5 regenerates Figure 5: the dilemma of keeping ConnTable in SLBs.
// For each update rate, the three migration policies trade SLB load (5a)
// against PCC violations (5b).
func Fig5(scale float64, seed int64) (*Report, error) {
	r := &Report{ID: "fig5", Title: "SLB load vs PCC violations with ConnTable in SLBs (Duet-style)"}
	// The duration must cover several Migrate-10min periods, or that
	// policy never gets to migrate (and never gets to break connections).
	dur := scaledDuration(simtime.Duration(25*simtime.Minute), scale, simtime.Duration(21*simtime.Minute))
	rates := []float64{1, 10, 25, 50}
	r.Printf("%-18s %12s %14s %16s", "policy", "updates/min", "SLB load", "broken conns")
	for _, policy := range []duet.Policy{duet.Migrate10min, duet.Migrate1min, duet.MigratePCC} {
		for _, rate := range rates {
			cfg := flowsim.Config{
				VIPs:          24,
				PoolSize:      16,
				ArrivalRate:   150 * scale,
				FlowClass:     workload.Hadoop,
				UpdatesPerMin: rate,
				Duration:      dur,
				Seed:          seed,
				ClusterType:   workload.PoP,
			}
			if cfg.ArrivalRate < 50 {
				cfg.ArrivalRate = 50
			}
			bal := flowsim.NewDuet(policy, uint64(seed))
			sim, err := flowsim.New(cfg, bal)
			if err != nil {
				return nil, err
			}
			if err := sim.AnnounceVIPs(bal.AddVIP); err != nil {
				return nil, err
			}
			res := sim.Run()
			r.Printf("%-18s %12.0f %13.1f%% %9d (%.3f%%)",
				policy.String(), rate, 100*res.SLBLoadFraction, res.BrokenConns, 100*res.BrokenFraction())
		}
	}
	r.Printf("paper @50/min: Migrate-10min 74%% SLB load / 0.3%% broken; Migrate-1min 13%% / 1.4%%; Migrate-PCC 94%% / 0%%")
	return r, nil
}

// silkroadSim runs one flow simulation against a SilkRoad switch.
func silkroadSim(cfg flowsim.Config, dmod func(*dataplane.Config), label string) (flowsim.Results, error) {
	dcfg := dataplane.DefaultConfig(1_000_000)
	if dmod != nil {
		dmod(&dcfg)
	}
	bal, err := flowsim.NewSilkRoad(label, dcfg, ctrlplane.DefaultConfig())
	if err != nil {
		return flowsim.Results{}, err
	}
	sim, err := flowsim.New(cfg, bal)
	if err != nil {
		return flowsim.Results{}, err
	}
	if err := sim.AnnounceVIPs(bal.AddVIP); err != nil {
		return flowsim.Results{}, err
	}
	return sim.Run(), nil
}

// fig16BaseConfig is the §6.2 traffic setting scaled down: the paper's PoP
// trace offers 2.77M new connections per minute (46K/s); the default scale
// runs ~1/30 of that, concentrated on few VIPs so that the per-update
// pending population (arrival rate per VIP x insertion latency) — the
// quantity that actually drives PCC violations — stays measurable. The
// window covers the Migrate-10min period so the Duet baseline migrates.
func fig16BaseConfig(scale float64, seed int64) flowsim.Config {
	cfg := flowsim.Config{
		VIPs:        4,
		PoolSize:    24,
		ArrivalRate: 1500 * scale,
		FlowClass:   workload.Hadoop,
		Duration:    scaledDuration(simtime.Duration(25*simtime.Minute), scale, simtime.Duration(12*simtime.Minute+30*simtime.Second)),
		Seed:        seed,
		ClusterType: workload.PoP,
	}
	if cfg.ArrivalRate < 100 {
		cfg.ArrivalRate = 100
	}
	return cfg
}

// Fig16 regenerates Figure 16: connections with PCC violations per minute
// under increasing DIP pool update frequency, for Duet (Migrate-10min),
// SilkRoad without TransitTable, and full SilkRoad.
func Fig16(scale float64, seed int64) (*Report, error) {
	r := &Report{ID: "fig16", Title: "PCC violations vs DIP pool update frequency"}
	rates := []float64{1, 10, 25, 50}
	r.Printf("%-26s %12s %14s %14s", "design", "updates/min", "broken/min", "broken frac")
	for _, rate := range rates {
		cfg := fig16BaseConfig(scale, seed)
		cfg.UpdatesPerMin = rate

		// Duet Migrate-10min.
		bal := flowsim.NewDuet(duet.Migrate10min, uint64(seed))
		sim, err := flowsim.New(cfg, bal)
		if err != nil {
			return nil, err
		}
		sim.AnnounceVIPs(bal.AddVIP)
		dres := sim.Run()
		r.Printf("%-26s %12.0f %14.1f %13.4f%%", dres.Balancer, rate, dres.BrokenPerMinute(), 100*dres.BrokenFraction())

		// SilkRoad without TransitTable.
		nres, err := silkroadSim(cfg,
			func(d *dataplane.Config) { d.DisableTransit = true },
			"SilkRoad w/o TransitTable")
		if err != nil {
			return nil, err
		}
		r.Printf("%-26s %12.0f %14.1f %13.4f%%", nres.Balancer, rate, nres.BrokenPerMinute(), 100*nres.BrokenFraction())

		// Full SilkRoad.
		sres, err := silkroadSim(cfg, nil, "SilkRoad")
		if err != nil {
			return nil, err
		}
		r.Printf("%-26s %12.0f %14.1f %13.4f%%", sres.Balancer, rate, sres.BrokenPerMinute(), 100*sres.BrokenFraction())
		if sres.BrokenConns > 0 {
			r.Printf("!! SilkRoad broke %d connections — PCC regression", sres.BrokenConns)
		}
	}
	r.Printf("paper @10/min: Duet breaks 0.08%% of connections, w/o TransitTable 0.00005%%, SilkRoad 0")
	return r, nil
}

// Fig17 regenerates Figure 17: PCC violations per minute as the new
// connection arrival rate scales from 0.1x to 2x the PoP trace.
func Fig17(scale float64, seed int64) (*Report, error) {
	r := &Report{ID: "fig17", Title: "PCC violations vs new-connection arrival rate (10 updates/min)"}
	r.Printf("%-26s %12s %14s", "design", "rate scale", "broken/min")
	for _, mult := range []float64{0.1, 0.5, 1.0, 2.0} {
		cfg := fig16BaseConfig(scale, seed)
		cfg.UpdatesPerMin = 10
		cfg.ArrivalRate *= mult
		if cfg.ArrivalRate < 20 {
			cfg.ArrivalRate = 20
		}

		bal := flowsim.NewDuet(duet.Migrate10min, uint64(seed))
		sim, err := flowsim.New(cfg, bal)
		if err != nil {
			return nil, err
		}
		sim.AnnounceVIPs(bal.AddVIP)
		dres := sim.Run()
		r.Printf("%-26s %12.1f %14.1f", dres.Balancer, mult, dres.BrokenPerMinute())

		nres, err := silkroadSim(cfg,
			func(d *dataplane.Config) { d.DisableTransit = true },
			"SilkRoad w/o TransitTable")
		if err != nil {
			return nil, err
		}
		r.Printf("%-26s %12.1f %14.1f", nres.Balancer, mult, nres.BrokenPerMinute())

		sres, err := silkroadSim(cfg, nil, "SilkRoad")
		if err != nil {
			return nil, err
		}
		r.Printf("%-26s %12.1f %14.1f", sres.Balancer, mult, sres.BrokenPerMinute())
	}
	r.Printf("paper: SilkRoad with a 256B TransitTable has zero violations at every rate;")
	r.Printf("       the others grow with the arrival rate")
	return r, nil
}

// Fig18 regenerates Figure 18: PCC violations as a function of the
// TransitTable size, for three learning-filter timeouts. Larger timeouts
// hold more pending connections, so tiny filters saturate and their false
// positives surface.
func Fig18(scale float64, seed int64) (*Report, error) {
	r := &Report{ID: "fig18", Title: "PCC violations vs TransitTable size (10 updates/min)"}
	sizes := []int{8, 32, 64, 256}
	timeouts := []simtime.Duration{
		simtime.Duration(500 * simtime.Microsecond),
		simtime.Duration(simtime.Millisecond),
		simtime.Duration(5 * simtime.Millisecond),
	}
	r.Printf("%-18s %12s %14s %14s", "learn timeout", "filter bytes", "broken conns", "bloom FPs fixed")
	for _, to := range timeouts {
		for _, size := range sizes {
			cfg := fig16BaseConfig(scale, seed)
			// Fig18 needs saturated learning windows, not the Duet
			// migration horizon: concentrate the offered load on one VIP
			// (the paper's 2.77M conns/min land on one switch) over a
			// short run with many step-2 windows.
			cfg.VIPs = 1
			cfg.ArrivalRate = 5000 * scale
			if cfg.ArrivalRate < 2000 {
				cfg.ArrivalRate = 2000
			}
			cfg.Duration = simtime.Duration(90 * simtime.Second)
			cfg.UpdatesPerMin = 10
			var fpFixed uint64
			res, err := func() (flowsim.Results, error) {
				dcfg := dataplane.DefaultConfig(1_000_000)
				dcfg.TransitTableBytes = size
				dcfg.LearnFilterTimeout = to
				ccfg := ctrlplane.DefaultConfig()
				bal, err := flowsim.NewSilkRoad(fmt.Sprintf("SilkRoad/%dB", size), dcfg, ccfg)
				if err != nil {
					return flowsim.Results{}, err
				}
				sim, err := flowsim.New(cfg, bal)
				if err != nil {
					return flowsim.Results{}, err
				}
				if err := sim.AnnounceVIPs(bal.AddVIP); err != nil {
					return flowsim.Results{}, err
				}
				res := sim.Run()
				fpFixed = bal.Eng.Stats().Controlplane.BloomFPsResolved
				return res, nil
			}()
			if err != nil {
				return nil, err
			}
			r.Printf("%-18v %12d %14d %14d", to, size, res.BrokenConns, fpFixed)
		}
	}
	r.Printf("paper: 8B suffices at <=1ms timeouts; 5ms needs 256B; SYN arbitration absorbs bloom FPs")
	return r, nil
}

// Fig15 regenerates Figure 15: the number of DIP pool versions a VIP needs
// in a ten-minute window, with and without version reuse, as the update
// rate grows. Rolling reboots (remove a DIP, re-add it after downtime)
// drive the churn; live connections (median lifetime a few minutes) pin
// old versions until they terminate, which is what makes the version field
// width matter.
func Fig15(scale float64, seed int64) (*Report, error) {
	r := &Report{ID: "fig15", Title: "DIP pool versions needed in a 10-minute window"}
	r.Printf("%-16s %24s %24s", "updates/10min", "no reuse (minted/active)", "with reuse (minted/active)")
	rates := []int{10, 50, 120, 330}
	for _, updates := range rates {
		nm, na, err := fig15Run(updates, true)
		if err != nil {
			return nil, err
		}
		rm, ra, err := fig15Run(updates, false)
		if err != nil {
			return nil, err
		}
		r.Printf("%-16d %15d / %-6d %15d / %-6d", updates, nm, na, rm, ra)
	}
	r.Printf("paper: 330 updates/10min need up to 330 versions (9 bits) without reuse,")
	r.Printf("       but at most 51 concurrently (6 bits suffice) with reuse")
	return r, nil
}

// fig15Run replays a rolling-reboot sequence of n updates on one VIP over
// a ten-minute window with connections arriving before every update and
// living 2.5 minutes. It returns the number of versions minted and the
// maximum held concurrently.
func fig15Run(n int, disableReuse bool) (minted, maxActive int, err error) {
	dcfg := dataplane.DefaultConfig(100000)
	// Headroom so demand, not wrap-around, is measured: 15 bits beside the
	// 16-bit digest fill the 32-bit entry word, 32 767 versions against a
	// demand of at most 331.
	dcfg.VersionBits = 15
	ccfg := ctrlplane.DefaultConfig()
	ccfg.DisableVersionReuse = disableReuse
	eng, err := pipes.New(pipes.Config{Pipes: 1, Dataplane: dcfg, Controlplane: ccfg})
	if err != nil {
		return 0, 0, err
	}
	vip := expVIP()
	pool := expPool(64)
	if err := eng.AddVIP(0, vip, pool, 0); err != nil {
		return 0, 0, err
	}
	window := simtime.Duration(10 * simtime.Minute)
	life := simtime.Duration(150 * simtime.Second)
	step := simtime.Duration(int64(window) / int64(n+1))
	now := simtime.Time(0)
	type ending struct {
		at    simtime.Time
		tuple int
	}
	var endings []ending
	var down []dataplane.DIP
	nextTuple := 0
	for i := 0; i < n; i++ {
		now = now.Add(step)
		eng.Advance(now)
		// Terminate connections whose lifetime elapsed.
		for len(endings) > 0 && !endings[0].at.After(now) {
			eng.EndConnection(now, expTuple(endings[0].tuple))
			endings = endings[1:]
		}
		// A connection arrives and pins the current version.
		var f [1]netproto.Frame
		synPacket(nextTuple).Frame(&f[0])
		var res [1]dataplane.Result
		eng.ProcessFramesInto(now, f[:], res[:])
		endings = append(endings, ending{at: now.Add(life), tuple: nextTuple})
		nextTuple++
		// Rolling reboot step.
		if i%2 == 0 || len(down) == 0 {
			victim := pool[(i/2)%len(pool)]
			if e := (poolEdits{eng}).RemoveDIP(now, vip, victim); e == nil {
				down = append(down, victim)
			}
		} else {
			d := down[0]
			down = down[1:]
			if e := (poolEdits{eng}).AddDIP(now, vip, d); e != nil {
				return 0, 0, e
			}
		}
	}
	eng.Advance(now.Add(simtime.Minute))
	cp := eng.Controlplane(0)
	return cp.VersionsAllocated(vip), cp.MaxActiveVersions(vip), nil
}
