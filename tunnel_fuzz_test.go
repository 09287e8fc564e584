package silkroad

import (
	"errors"
	"net"
	"net/netip"
	"testing"
)

// fakeBatchIO is a socket-free batchIO: recv hands out the datagrams
// queued for the next batch, a longer one filling its slot as the kernel
// truncates it, and send delivers everything but the packet at position
// failAt of the batch's send order (-1: none), where it stops short.
type fakeBatchIO struct {
	queue     [][]byte
	failAt    int
	pos       int    // packets of this batch handed to send so far
	delivered uint64 // packets send reported as sent, over all batches
}

var errFakeSend = errors.New("fake send failure")

func (f *fakeBatchIO) recv(bufs [][]byte, sizes []int) (int, error) {
	if len(f.queue) == 0 {
		return 0, net.ErrClosed
	}
	n := min(len(bufs), len(f.queue))
	for i, d := range f.queue[:n] {
		sizes[i] = copy(bufs[i], d)
	}
	f.queue, f.pos = f.queue[n:], 0
	return n, nil
}

func (f *fakeBatchIO) send(pkts [][]byte, _ []netip.AddrPort) (int, error) {
	sent, err := len(pkts), error(nil)
	if k := f.failAt - f.pos; k >= 0 && k < len(pkts) {
		sent, err = k, errFakeSend
		f.pos++
	}
	f.pos += sent
	f.delivered += uint64(sent)
	return sent, err
}

// tunnelFuzzMaxPacket is the fuzzed tunnel's datagram bound (maxPkt),
// small so that oversize datagrams stay cheap.
const tunnelFuzzMaxPacket = 256

// tunnelFuzzPacket marshals one TCP packet from client port src to vip.
func tunnelFuzzPacket(vip VIP, src uint16, flags uint8, payload int) []byte {
	client := netip.MustParseAddr("10.1.0.1")
	if vip.Addr.Is6() {
		client = netip.MustParseAddr("2001:db8:1::1")
	}
	p := Packet{
		Tuple:    FiveTuple{Src: client, Dst: vip.Addr, SrcPort: src, DstPort: vip.Port, Proto: TCP},
		TCPFlags: flags,
		Payload:  make([]byte, payload),
	}
	raw, err := p.Marshal(nil)
	if err != nil {
		panic(err)
	}
	return raw
}

// FuzzTunnelStep runs arbitrary datagram batches through the tunnel loop's
// step over a fakeBatchIO. The input's first byte picks the mode (bit 0:
// IP-in-IP); then each batch is a header byte — bits 0-3: its datagram
// count less one; bits 4-7: the send position that fails, 15 for none —
// and two bytes a datagram, k and p:
//
//	k%6 == 0  an IPv4 TCP packet to the switch's IPv4 VIP from client port p,
//	          its flags picked by k>>3&3 (SYN, ACK, FIN|ACK, RST)
//	k%6 == 1  the same to the IPv6 VIP; with k bit 5 set, its next header
//	          names a hop-by-hop extension header
//	          (IP-in-IP carries IPv4 only: in that mode the datagram is
//	          first also stepped alone, and must be undecodable and leave
//	          the switch's Packets and LearnOffers unchanged)
//	k%6 == 2  an IPv4 packet to a VIP the switch does not announce
//	k%6 == 3  an IPv4 packet cut to p bytes (mod its length)
//	k%6 == 4  an IPv4 packet longer than the tunnel's bound by p+1 bytes
//	k%6 == 5  the next p%48 bytes of the input, raw
//
// After every step each datagram received is forwarded, dropped, failed
// or undecodable, and Forwarded counts exactly the packets the fake's send
// took. A last batch of valid datagrams, repeated once the connections are
// installed, allocates nothing.
func FuzzTunnelStep(f *testing.F) {
	f.Add([]byte{0, 0xf1, 0, 1, 1, 1})                      // one v4, one v6 packet
	f.Add([]byte{1, 0xf1, 0, 1, 1, 1})                      // the same through IP-in-IP
	f.Add([]byte{0, 0x15, 0, 1, 0, 2, 2, 3, 1, 4, 3, 9})    // a short send among drops and a truncated packet
	f.Add([]byte{0, 0xf2, 4, 0, 5, 4, 0xde, 0xad, 0x45, 0}) // oversize, raw bytes, a garbled header
	f.Add([]byte{0, 0xf0, 0x21, 5})                         // IPv6 with an extension header
	f.Add([]byte{1, 0xf0, 1, 2})                            // an IPv6 SYN alone through IP-in-IP
	f.Add([]byte{0, 0x03, 0, 7, 8, 7, 16, 7, 24, 7})        // one connection SYN, ACK, FIN, RST; the first send fails
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Defaults(1024)
		clock := NewManualClock(0)
		cfg.Clock = clock
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vip4, vip6 := NewVIP("20.0.0.1", 80, TCP), NewVIP("2001:db8::1", 80, TCP)
		for _, v := range []struct {
			vip  VIP
			pool []DIP
		}{{vip4, Pool("10.0.0.1:20", "10.0.0.2:20")}, {vip6, Pool("[2001:db8:2::1]:20", "[2001:db8:2::2]:20")}} {
			if err := sw.AddVIP(0, v.vip, v.pool); err != nil {
				t.Fatal(err)
			}
		}
		fio := &fakeBatchIO{}
		tun := &Tunnel{sw: sw, mode: TunnelRewrite, batch: 16, maxPkt: tunnelFuzzMaxPacket,
			logf: func(string, ...any) {}, io: fio}
		if data[0]&1 != 0 {
			tun.mode, tun.self = TunnelIPIP, netip.MustParseAddr("192.0.2.1")
		}
		b := tun.newBatch()
		step := func() {
			t.Helper()
			if err := tun.step(b); err != nil {
				t.Fatalf("step: %v", err)
			}
			st := tun.Stats()
			if st.Forwarded+st.Dropped+st.TxErrors+st.Undecodable != st.RxPackets {
				t.Fatalf("counters do not reconcile after a step: %+v", st)
			}
			if st.Forwarded != fio.delivered {
				t.Fatalf("Forwarded = %d, but send took %d packets", st.Forwarded, fio.delivered)
			}
			clock.Advance(100 * Microsecond)
		}
		// ipipV6 steps d, an IPv6 datagram, alone through the IP-in-IP
		// tunnel, apart from the batch being queued.
		ipipV6 := func(d []byte) {
			t.Helper()
			queued := fio.queue
			fio.queue = [][]byte{d}
			before, undecodable := sw.Stats().Dataplane, tun.Stats().Undecodable
			step()
			after := sw.Stats().Dataplane
			if tun.Stats().Undecodable != undecodable+1 || after.Packets != before.Packets || after.LearnOffers != before.LearnOffers {
				t.Fatalf("IPv6 datagram through IP-in-IP: undecodable %d -> %d, packets %d -> %d, learn offers %d -> %d; want it undecodable and unseen by the pipeline",
					undecodable, tun.Stats().Undecodable, before.Packets, after.Packets, before.LearnOffers, after.LearnOffers)
			}
			fio.queue = queued
		}

		for in := data[1:]; len(in) > 0; {
			h := in[0]
			in = in[1:]
			fio.failAt = int(h >> 4)
			if fio.failAt == 15 {
				fio.failAt = -1
			}
			for n := int(h&15) + 1; n > 0 && len(in) >= 2; n-- {
				k, p := in[0], in[1]
				in = in[2:]
				flags := [4]uint8{FlagSYN, FlagACK, FlagFIN | FlagACK, FlagRST}[k>>3&3]
				var d []byte
				switch k % 6 {
				case 0:
					d = tunnelFuzzPacket(vip4, uint16(p), flags, 0)
				case 1:
					d = tunnelFuzzPacket(vip6, uint16(p), flags, 0)
					if k&0x20 != 0 {
						d[6] = 0
					}
					if tun.mode == TunnelIPIP {
						ipipV6(d)
					}
				case 2:
					d = tunnelFuzzPacket(NewVIP("20.0.0.9", 80, TCP), uint16(p), flags, 0)
				case 3:
					d = tunnelFuzzPacket(vip4, uint16(p), flags, 0)
					d = d[:int(p)%len(d)]
				case 4:
					d = tunnelFuzzPacket(vip4, uint16(p), flags, tunnelFuzzMaxPacket-40+1+int(p))
				case 5:
					m := min(int(p)%48, len(in))
					d, in = in[:m], in[m:]
				}
				fio.queue = append(fio.queue, d)
			}
			if len(fio.queue) > 0 {
				step()
			}
		}

		// Valid datagrams for connections of their own: IPv4, and IPv6 where
		// the mode can carry it.
		var valid [][]byte
		for i := uint16(0); i < 8; i++ {
			valid = append(valid, tunnelFuzzPacket(vip4, 60000+i, FlagACK, 0))
			if tun.mode == TunnelRewrite {
				valid = append(valid, tunnelFuzzPacket(vip6, 60000+i, FlagACK, 0))
			}
		}
		fio.failAt = -1
		turn := func() {
			fio.queue = valid
			step()
		}
		for i := 0; i == 0 || sw.PendingWork() != 0; i++ {
			if i == 100 {
				t.Fatalf("%d control-plane items still pending", sw.PendingWork())
			}
			turn()
			clock.Advance(Millisecond)
		}
		if allocs := testing.AllocsPerRun(5, turn); allocs != 0 {
			t.Fatalf("a batch of valid datagrams allocated %.1f times, want 0", allocs)
		}
	})
}
