// Quickstart: announce a VIP, balance a few connections, and watch the
// switch pin each connection to a backend across a DIP pool change.
//
// The switch runs on its wall-clock event runtime: Switch.Run drives the
// learning-filter drains, CPU insertions and PCC update steps autonomously
// while this program just sends packets and sleeps — no manual AdvanceTo
// calls anywhere.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/netip"
	"time"

	silkroad "repro"
)

func main() {
	// A switch provisioned for 100K concurrent connections (the paper's
	// prototype fits 10M on a real 6.4 Tbps ASIC), with a telemetry
	// registry attached so we can inspect what the pipeline did.
	cfg := silkroad.Defaults(100_000)
	cfg.Telemetry = silkroad.NewTelemetry()
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Start the event runtime: from here on the switch CPU works on its
	// own clock, exactly like cmd/silkroadd in production.
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- sw.Run(ctx) }()

	// One service: VIP 20.0.0.1:80 backed by three servers.
	vip := silkroad.NewVIP("20.0.0.1", 80, silkroad.TCP)
	if err := sw.AddVIP(sw.Now(), vip, silkroad.Pool(
		"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080")); err != nil {
		log.Fatal(err)
	}

	// Ten clients connect. The first packet of each connection selects a
	// DIP by hashing over the current pool version; the ASIC notifies the
	// switch CPU, which installs a ConnTable entry within ~1 ms.
	// send runs one packet of connection t through the switch. A decoded
	// packet enters as its synthetic frame (Packet.Frame); raw bytes take
	// ParseFrame, or Forward, instead.
	send := func(t silkroad.FiveTuple, flags uint8) silkroad.Result {
		var f silkroad.Frame
		(&silkroad.Packet{Tuple: t, TCPFlags: flags}).Frame(&f)
		return sw.ProcessFrame(sw.Now(), &f)
	}
	conns := make([]silkroad.FiveTuple, 10)
	for i := range conns {
		conns[i] = silkroad.FiveTuple{
			Src:     netip.AddrFrom4([4]byte{192, 168, 0, byte(i + 1)}),
			Dst:     vip.Addr,
			SrcPort: uint16(40000 + i),
			DstPort: vip.Port,
			Proto:   silkroad.TCP,
		}
		res := send(conns[i], silkroad.FlagSYN)
		fmt.Printf("conn %2d -> %v (version %d)\n", i, res.DIP, res.Version)
	}

	// Sleep past the learning-filter flush: the runtime drains the filter
	// and the CPU installs the entries while we wait.
	time.Sleep(50 * time.Millisecond)

	// Drain one backend for maintenance. SilkRoad runs the 3-step
	// per-connection-consistent update: established connections keep
	// their backend; only new connections see the smaller pool.
	fmt.Println("\nremoving 10.0.0.2:8080 ...")
	if err := sw.RemoveDIP(sw.Now(), vip, silkroad.AddrPort("10.0.0.2:8080")); err != nil {
		log.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	moved := 0
	for i, tup := range conns {
		res := send(tup, silkroad.FlagACK)
		fmt.Printf("conn %2d -> %v (ConnTable hit=%v)\n", i, res.DIP, res.ConnHit)
		if !res.ConnHit {
			moved++
		}
	}

	st := sw.Stats()
	fmt.Printf("\nswitch stats: %d connections tracked, %d inserted by CPU, %d updates completed, %d B SRAM\n",
		st.Connections, st.Controlplane.Inserted, st.Controlplane.UpdatesCompleted, st.MemoryBytes)
	fmt.Println("per-connection consistency held for every established connection.")

	// The raw-packet path reports failures as wrapped sentinel errors.
	stray := &silkroad.Packet{Tuple: conns[0]}
	stray.Tuple.Dst = netip.MustParseAddr("30.0.0.1")
	raw, _ := stray.Marshal(nil)
	if _, err := sw.Forward(sw.Now(), raw); errors.Is(err, silkroad.ErrNotVIP) {
		fmt.Printf("forwarding to a non-VIP fails cleanly: %v\n", err)
	}

	// The telemetry registry saw every event above; §4.2's pending window
	// (SYN seen -> ConnTable entry committed) is one of its histograms.
	snap := sw.Telemetry().Snapshot(sw.Now())
	pw := snap.Histograms["silkroad_insert_pending_window_seconds"]
	fmt.Printf("pending windows: %d inserts, mean %.2f ms\n", pw.Count, pw.Mean()*1e3)

	// Shut the runtime down the way silkroadd does on SIGTERM.
	cancel()
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}
}
