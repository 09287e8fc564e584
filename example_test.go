package silkroad_test

import (
	"fmt"
	"net/netip"

	silkroad "repro"
)

// The canonical usage: announce a VIP, balance a connection, update the
// pool with per-connection consistency.
func Example() {
	sw, err := silkroad.NewSwitch(silkroad.Defaults(100_000))
	if err != nil {
		panic(err)
	}
	vip := silkroad.NewVIP("20.0.0.1", 80, silkroad.TCP)
	if err := sw.AddVIP(0, vip, silkroad.Pool("10.0.0.1:20", "10.0.0.2:20")); err != nil {
		panic(err)
	}

	conn := silkroad.FiveTuple{
		Src:     netip.MustParseAddr("1.2.3.4"),
		Dst:     vip.Addr,
		SrcPort: 1234, DstPort: 80, Proto: silkroad.TCP,
	}
	// A decoded packet enters the switch as its synthetic frame.
	var syn, ack silkroad.Frame
	(&silkroad.Packet{Tuple: conn, TCPFlags: silkroad.FlagSYN}).Frame(&syn)
	(&silkroad.Packet{Tuple: conn, TCPFlags: silkroad.FlagACK}).Frame(&ack)
	first := sw.ProcessFrame(0, &syn)

	// Let the CPU install the ConnTable entry, then update the pool.
	sw.AdvanceTo(silkroad.Time(5 * silkroad.Millisecond))
	sw.AddDIP(silkroad.Time(5*silkroad.Millisecond), vip, silkroad.AddrPort("10.0.0.3:20"))

	later := sw.ProcessFrame(silkroad.Time(20*silkroad.Millisecond), &ack)
	fmt.Println("same DIP across the update:", first.DIP == later.DIP)
	fmt.Println("served from ConnTable:", later.ConnHit)
	// Output:
	// same DIP across the update: true
	// served from ConnTable: true
}

// Forward rewrites raw packets in place — the full data path.
func ExampleSwitch_Forward() {
	sw, _ := silkroad.NewSwitch(silkroad.Defaults(1000))
	vip := silkroad.NewVIP("20.0.0.1", 80, silkroad.TCP)
	sw.AddVIP(0, vip, silkroad.Pool("10.0.0.9:8080"))

	pkt := &silkroad.Packet{
		Tuple: silkroad.FiveTuple{
			Src:     netip.MustParseAddr("1.2.3.4"),
			Dst:     vip.Addr,
			SrcPort: 999, DstPort: 80, Proto: silkroad.TCP,
		},
		TCPFlags: 0x02,
	}
	raw, _ := pkt.Marshal(nil)
	dip, err := sw.Forward(0, raw)
	fmt.Println(dip, err)
	// Output:
	// 10.0.0.9:8080 <nil>
}

// UpdatePool replaces a pool wholesale; the 3-step PCC update runs
// underneath and new connections only ever see complete pools.
func ExampleSwitch_UpdatePool() {
	sw, _ := silkroad.NewSwitch(silkroad.Defaults(1000))
	vip := silkroad.NewVIP("20.0.0.1", 80, silkroad.TCP)
	sw.AddVIP(0, vip, silkroad.Pool("10.0.0.1:20"))

	sw.UpdatePool(0, vip, silkroad.Pool("10.0.1.1:20", "10.0.1.2:20"))
	sw.AdvanceTo(silkroad.Time(50 * silkroad.Millisecond))

	pool, _ := sw.CurrentPool(vip)
	fmt.Println(len(pool), "backends")
	// Output:
	// 2 backends
}
