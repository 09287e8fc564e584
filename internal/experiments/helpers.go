package experiments

import (
	"net/netip"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/regarray"
	"repro/internal/simtime"
)

// greenMeter wraps a two-rate three-color meter for accuracy measurement.
type greenMeter struct{ m *regarray.Meter }

func newMeter(cirBytesPerSec float64) greenMeter {
	return greenMeter{m: regarray.NewMeter(cirBytesPerSec, cirBytesPerSec/100, 1, 1)}
}

// MarkGreen reports whether the packet is in the committed profile.
func (g greenMeter) MarkGreen(now simtime.Time, bytes int) bool {
	return g.m.Mark(now, bytes) == regarray.Green
}

// expVIP builds the experiment's canonical VIP.
func expVIP() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

// expPool builds n IPv4 DIPs.
func expPool(n int) []dataplane.DIP {
	out := make([]dataplane.DIP, n)
	for i := range out {
		out[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), 20)
	}
	return out
}

// expTuple builds the i-th client connection to the canonical VIP.
func expTuple(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{1, byte(i >> 16), byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: uint16(1024 + i%60000),
		DstPort: 80,
		Proto:   netproto.ProtoTCP,
	}
}

// synPacket builds the i-th client's SYN to the canonical VIP.
func synPacket(i int) *netproto.Packet {
	return &netproto.Packet{Tuple: expTuple(i), TCPFlags: netproto.FlagSYN}
}

// insertionThroughput offers SYNs faster than the CPU's configured rate
// and measures sustained insertions per virtual second plus the mean
// arrival-to-install delay.
func insertionThroughput(scale float64) (ratePerSec float64, meanDelay simtime.Duration) {
	dur := simtime.Duration(float64(simtime.Second) * 0.5 * scale)
	if dur < simtime.Duration(100*simtime.Millisecond) {
		dur = simtime.Duration(100 * simtime.Millisecond)
	}
	sw, err := dataplane.New(dataplane.DefaultConfig(1_000_000))
	if err != nil {
		panic(err)
	}
	cp := ctrlplane.New(sw, ctrlplane.DefaultConfig())
	if err := cp.AddVIP(0, expVIP(), expPool(32), 0); err != nil {
		panic(err)
	}
	// Offer at 2x the CPU rate so the pipeline saturates.
	offered := 400_000.0
	interval := simtime.Duration(float64(simtime.Second) / offered)
	now := simtime.Time(0)
	var f netproto.Frame
	var res dataplane.Result
	for i := 0; now.Before(simtime.Time(0).Add(dur)); i++ {
		synPacket(i).Frame(&f)
		cp.ProcessFrameInto(now, &f, &res)
		now = now.Add(interval)
	}
	// Let the backlog drain to measure steady-state throughput over the
	// busy period only.
	m := cp.Metrics()
	busySeconds := simtime.Duration(now.Sub(0)).Seconds()
	return float64(m.Inserted) / busySeconds, m.MeanInsertDelay()
}
