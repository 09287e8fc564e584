// Rolling upgrade: the §3.1 scenario that motivates SilkRoad. A service
// with 16 backends is upgraded two DIPs at a time under live traffic
// (thousands of connections arriving per second); every removal and
// re-addition runs the 3-step PCC update. The example asserts that not a
// single established connection changes backend, and shows the version
// machinery at work (versions minted, reused, retired).
//
// Time is virtual and deterministic: the switch runs on a ManualClock and
// Switch.AdvanceTo drives the event runtime — the same scheduler
// Switch.Run executes against the wall clock — synchronously to each
// instant the scenario cares about.
//
// Run with: go run ./examples/rollingupgrade
package main

import (
	"fmt"
	"log"
	"net/netip"

	silkroad "repro"
)

const (
	backends   = 16
	arrivalGap = 500 * silkroad.Microsecond // ~2000 new conns/s
	stepPause  = 50 * silkroad.Millisecond
)

func main() {
	cfg := silkroad.Defaults(1_000_000)
	cfg.Clock = silkroad.NewManualClock(0)
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		log.Fatal(err)
	}
	vip := silkroad.NewVIP("20.0.0.1", 443, silkroad.TCP)
	pool := make([]silkroad.DIP, backends)
	for i := range pool {
		pool[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)}), 9443)
	}
	if err := sw.AddVIP(0, vip, pool); err != nil {
		log.Fatal(err)
	}

	now := silkroad.Time(0)
	nextConn := 0
	firstDIP := map[int]silkroad.DIP{}
	violations := 0

	tuple := func(i int) silkroad.FiveTuple {
		return silkroad.FiveTuple{
			Src:     netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}),
			Dst:     vip.Addr,
			SrcPort: uint16(1024 + i%60000),
			DstPort: vip.Port,
			Proto:   silkroad.TCP,
		}
	}
	// send runs one packet of connection i through the switch as the
	// packet's synthetic frame (Packet.Frame).
	send := func(i int, flags uint8) silkroad.Result {
		var f silkroad.Frame
		(&silkroad.Packet{Tuple: tuple(i), TCPFlags: flags}).Frame(&f)
		return sw.ProcessFrame(now, &f)
	}
	// openConns starts n new connections at the current time.
	openConns := func(n int) {
		for i := 0; i < n; i++ {
			res := send(nextConn, silkroad.FlagSYN)
			firstDIP[nextConn] = res.DIP
			nextConn++
			now = now.Add(arrivalGap)
		}
	}
	// probeAll sends one packet on every open connection and checks PCC.
	probeAll := func() {
		for i := 0; i < nextConn; i++ {
			res := send(i, silkroad.FlagACK)
			if res.DIP != firstDIP[i] {
				violations++
			}
		}
	}

	openConns(500)
	fmt.Printf("established %d connections across %d backends\n", nextConn, backends)

	// Upgrade two backends per step: take them down, keep traffic
	// flowing, bring the upgraded instances back.
	for step := 0; step < backends/2; step++ {
		a, b := pool[2*step], pool[2*step+1]
		fmt.Printf("step %2d: draining %v and %v\n", step, a, b)
		if err := sw.RemoveDIP(now, vip, a); err != nil {
			log.Fatal(err)
		}
		if err := sw.RemoveDIP(now, vip, b); err != nil {
			log.Fatal(err)
		}
		openConns(100) // connections keep arriving mid-update
		probeAll()
		now = now.Add(stepPause) // upgrade happens here
		sw.AdvanceTo(now)
		if err := sw.AddDIP(now, vip, a); err != nil {
			log.Fatal(err)
		}
		if err := sw.AddDIP(now, vip, b); err != nil {
			log.Fatal(err)
		}
		openConns(100)
		probeAll()
		now = now.Add(stepPause)
		sw.AdvanceTo(now)
	}

	st := sw.Stats()
	cur, _ := sw.CurrentPool(vip)
	fmt.Printf("\nupgrade finished: %d connections, pool back to %d backends\n", nextConn, len(cur))
	fmt.Printf("updates completed: %d, versions minted: %d, versions reused: %d\n",
		st.Controlplane.UpdatesCompleted, st.Controlplane.VersionAllocs, st.Controlplane.VersionReuses)
	fmt.Printf("PCC violations: %d\n", violations)
	if violations != 0 {
		log.Fatal("per-connection consistency was violated!")
	}
	fmt.Println("every connection stayed on its original backend throughout the upgrade.")
}
