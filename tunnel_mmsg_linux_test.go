package silkroad

import (
	"net"
	"net/netip"
	"syscall"
	"testing"
)

// TestSetNameZoneResolvedOnce: a link-local DIP's zone is resolved to its
// interface index by the first packet sent to it; every later packet's
// destination costs no allocation (net.InterfaceByName allocates and reads
// the interface list), and carries the same scope.
func TestSetNameZoneResolvedOnce(t *testing.T) {
	lo, err := net.InterfaceByIndex(1)
	if err != nil {
		t.Skipf("no interface 1 to zone an address with: %v", err)
	}
	m := &mmsgIO{txV6: true, txHdrs: make([]mmsghdr, 1), names: make([]syscall.RawSockaddrInet6, 1)}
	dst := netip.AddrPortFrom(netip.MustParseAddr("fe80::1").WithZone(lo.Name), 9000)
	if err := m.setName(0, dst); err != nil {
		t.Fatal(err)
	}
	if got := m.names[0].Scope_id; got != uint32(lo.Index) {
		t.Fatalf("scope id %d, want %s's index %d", got, lo.Name, lo.Index)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.setName(0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || m.names[0].Scope_id != uint32(lo.Index) {
		t.Fatalf("setName to a resolved zone: %.1f allocations, scope id %d; want 0 and %d", allocs, m.names[0].Scope_id, lo.Index)
	}
	if err := m.setName(0, netip.AddrPortFrom(netip.MustParseAddr("fe80::1").WithZone("no-such-interface"), 9000)); err == nil {
		t.Fatal("setName to an unknown zone succeeded")
	}
}

// TestTunnelGSOFallback: a segmented message the kernel refuses costs no
// packet. With SO_NO_CHECK on the egress socket the kernel refuses every
// UDP GSO send (EINVAL) but sends single datagrams, so each multi-packet
// DIP's message is refused and its packets go again one message each.
func TestTunnelGSOFallback(t *testing.T) {
	sinks := []*tunnelSink{listenSink(t, "udp4"), listenSink(t, "udp4"), listenSink(t, "udp4")}
	sw, vips := sinkSwitch(t, sinks...)
	h := newTunnelHarness(t, sw, TunnelRewrite, false)
	m, ok := h.tun.io.(*mmsgIO)
	if !ok || m.segs == 1 {
		t.Skipf("the tunnel sends through %T without UDP GSO", h.tun.io)
	}
	raw, err := h.tun.tx.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK on the egress socket: %v, %v", err, serr)
	}

	// DIP 1 gets the second datagram alone and DIPs 0 and 2 take turns with
	// the rest: grouped, DIP 1's lone packet sits between two refused
	// messages of 32 and 31.
	const n = 64
	want := make([][]uint16, len(sinks))
	for i := 0; i < n; i++ {
		d := 2 * (i % 2)
		if i == 1 {
			d = 1
		}
		h.send(t, vips[d], 56000+uint16(i), FlagSYN)
		want[d] = append(want[d], 56000+uint16(i))
	}
	h.startOnBacklog(t)
	for d, ports := range want {
		for _, port := range ports {
			if got := sinks[d].next(t).Tuple.SrcPort; got != port {
				t.Fatalf("DIP %d received connection %d, want %d", d, got, port)
			}
		}
	}
	h.waitForwarded(t, n)
	if st := h.reconciled(t); st.Forwarded != n || st.TxErrors != 0 || st.RxBatches != 1 || st.TxBatches != 1 {
		t.Errorf("a %d-datagram backlog with GSO refused: %+v, want all forwarded in one read and one send pass", n, st)
	}
	// Every packet left as a message of its own. sendmmsg calls: DIP 0's
	// message refused, its 32 packets; DIP 1's packet out and DIP 2's
	// message refused (a short count, then the errno); its 31 packets.
	if _, send, msgs, _ := m.counts(); send != 5 || msgs != n {
		t.Errorf("%d sendmmsg calls carrying %d messages, want 5 and %d", send, msgs, n)
	}
}
