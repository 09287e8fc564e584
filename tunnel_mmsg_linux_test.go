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
