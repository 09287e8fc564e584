package flowsim

import (
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/duet"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.VIPs = 8
	cfg.PoolSize = 10
	cfg.ArrivalRate = 800
	cfg.UpdatesPerMin = 20
	cfg.Duration = simtime.Duration(10 * simtime.Second)
	return cfg
}

func runSilkRoad(t *testing.T, cfg Config, dmod func(*dataplane.Config)) Results {
	t.Helper()
	dcfg := dataplane.DefaultConfig(200000)
	if dmod != nil {
		dmod(&dcfg)
	}
	bal, err := NewSilkRoad("SilkRoad", dcfg, ctrlplane.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, bal)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AnnounceVIPs(bal.AddVIP); err != nil {
		t.Fatal(err)
	}
	return sim.Run()
}

func TestSilkRoadZeroViolations(t *testing.T) {
	res := runSilkRoad(t, quickCfg(), nil)
	if res.Conns < 5000 {
		t.Fatalf("simulated only %d conns", res.Conns)
	}
	if res.BrokenConns != 0 {
		t.Fatalf("SilkRoad broke %d connections (PCC must hold)", res.BrokenConns)
	}
	if res.UpdatesApplied == 0 {
		t.Fatal("no updates applied")
	}
	if res.SLBLoadFraction != 0 {
		t.Fatal("SilkRoad has no SLB component")
	}
}

func TestNoTransitHasViolationsUnderHighUpdateRate(t *testing.T) {
	cfg := quickCfg()
	cfg.UpdatesPerMin = 120
	cfg.ArrivalRate = 3000
	res := runSilkRoad(t, cfg,
		func(d *dataplane.Config) { d.DisableTransit = true })
	if res.BrokenConns == 0 {
		t.Fatal("no-TransitTable ablation should break pending connections")
	}
	// But the exposure window is milliseconds: the fraction stays small.
	if f := res.BrokenFraction(); f > 0.05 {
		t.Fatalf("broken fraction = %.4f, expected tiny window effect", f)
	}
}

func TestDuetMigrate1minBreaksConnections(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = simtime.Duration(3 * simtime.Minute)
	cfg.UpdatesPerMin = 30
	cfg.ArrivalRate = 300
	bal := NewDuet(duet.Migrate1min, 42)
	sim, err := New(cfg, bal)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AnnounceVIPs(bal.AddVIP); err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.BrokenConns == 0 {
		t.Fatal("Duet Migrate-1min under heavy updates should break connections")
	}
	if res.SLBLoadFraction <= 0 || res.SLBLoadFraction > 1 {
		t.Fatalf("SLB load fraction = %v", res.SLBLoadFraction)
	}
}

func TestDuetMigratePCCNeverBreaks(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = simtime.Duration(2 * simtime.Minute)
	cfg.UpdatesPerMin = 30
	cfg.ArrivalRate = 300
	bal := NewDuet(duet.MigratePCC, 42)
	sim, _ := New(cfg, bal)
	sim.AnnounceVIPs(bal.AddVIP)
	res := sim.Run()
	if res.BrokenConns != 0 {
		t.Fatalf("Migrate-PCC broke %d conns", res.BrokenConns)
	}
	// The price: a large share of traffic sits on SLBs.
	if res.SLBLoadFraction < 0.2 {
		t.Fatalf("Migrate-PCC SLB load = %.3f, expected substantial", res.SLBLoadFraction)
	}
}

func TestDuetLoadOrdering(t *testing.T) {
	// Migrate-1min must put less load on SLBs than Migrate-PCC, and
	// Migrate-10min sits in between or above 1min (Figure 5a ordering).
	cfg := quickCfg()
	cfg.Duration = simtime.Duration(3 * simtime.Minute)
	cfg.UpdatesPerMin = 50
	cfg.ArrivalRate = 200
	load := map[duet.Policy]float64{}
	for _, p := range []duet.Policy{Migrate1minP(), Migrate10minP(), MigratePCCP()} {
		bal := NewDuet(p, 7)
		sim, _ := New(cfg, bal)
		sim.AnnounceVIPs(bal.AddVIP)
		load[p] = sim.Run().SLBLoadFraction
	}
	if !(load[duet.Migrate1min] < load[duet.Migrate10min]) {
		t.Fatalf("load(1min)=%.3f should be < load(10min)=%.3f",
			load[duet.Migrate1min], load[duet.Migrate10min])
	}
	if !(load[duet.Migrate10min] <= load[duet.MigratePCC]+0.05) {
		t.Fatalf("load(10min)=%.3f should be <= load(PCC)=%.3f",
			load[duet.Migrate10min], load[duet.MigratePCC])
	}
}

// tiny helpers so the loop above reads clearly
func Migrate1minP() duet.Policy  { return duet.Migrate1min }
func Migrate10minP() duet.Policy { return duet.Migrate10min }
func MigratePCCP() duet.Policy   { return duet.MigratePCC }

func TestSLBBaselinePerfect(t *testing.T) {
	cfg := quickCfg()
	bal := NewSLB()
	sim, _ := New(cfg, bal)
	sim.AnnounceVIPs(bal.AddVIP)
	res := sim.Run()
	if res.BrokenConns != 0 {
		t.Fatalf("SLB broke %d conns", res.BrokenConns)
	}
	if res.SLBLoadFraction != 1 {
		t.Fatal("pure SLB load should be 1")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = simtime.Duration(5 * simtime.Second)
	r1 := runSilkRoad(t, cfg, nil)
	r2 := runSilkRoad(t, cfg, nil)
	if r1.Conns != r2.Conns || r1.Packets != r2.Packets || r1.UpdatesApplied != r2.UpdatesApplied {
		t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.VIPs = 0
	if _, err := New(bad, NewSLB()); err == nil {
		t.Fatal("degenerate config accepted")
	}
}

func TestResultsHelpers(t *testing.T) {
	r := Results{Conns: 100, BrokenConns: 2, SimulatedTime: simtime.Duration(2 * simtime.Minute)}
	if r.BrokenFraction() != 0.02 {
		t.Fatal("BrokenFraction")
	}
	if r.BrokenPerMinute() != 1 {
		t.Fatal("BrokenPerMinute")
	}
	if (Results{}).BrokenFraction() != 0 || (Results{}).BrokenPerMinute() != 0 {
		t.Fatal("zero-value results")
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
}

func TestZipfSkewConcentratesTraffic(t *testing.T) {
	// With a strong Zipf skew the hottest VIP dominates, and PCC must
	// still hold (the hot VIP sees the most pending connections during
	// its updates).
	cfg := quickCfg()
	cfg.VIPSkew = 1.5
	cfg.Duration = simtime.Duration(8 * simtime.Second)
	res := runSilkRoad(t, cfg, nil)
	if res.BrokenConns != 0 {
		t.Fatalf("skewed workload broke %d conns", res.BrokenConns)
	}
	// Deterministic re-run matches.
	res2 := runSilkRoad(t, cfg, nil)
	if res.Conns != res2.Conns {
		t.Fatal("skewed runs not reproducible")
	}
}

func TestIPv6WorkloadZeroViolations(t *testing.T) {
	// Backends run IPv6 (§6.1): the 37-byte keys exercise the wide digest
	// path end to end, with the same PCC guarantee.
	cfg := quickCfg()
	cfg.IPv6 = true
	cfg.Duration = simtime.Duration(8 * simtime.Second)
	res := runSilkRoad(t, cfg, nil)
	if res.Conns < 2000 {
		t.Fatalf("only %d conns", res.Conns)
	}
	if res.BrokenConns != 0 {
		t.Fatalf("IPv6 workload broke %d conns", res.BrokenConns)
	}
}

func TestCacheTrafficLongerFlows(t *testing.T) {
	cfg := quickCfg()
	cfg.FlowClass = workload.Cache
	cfg.ArrivalRate = 200
	cfg.Duration = simtime.Duration(20 * simtime.Second)
	res := runSilkRoad(t, cfg, nil)
	if res.BrokenConns != 0 {
		t.Fatalf("cache traffic broke %d conns under SilkRoad", res.BrokenConns)
	}
}
