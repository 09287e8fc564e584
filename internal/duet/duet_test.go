package duet

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

func vip() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func pool(n int) []dataplane.DIP {
	out := make([]dataplane.DIP, n)
	for i := range out {
		out[i] = netip.MustParseAddrPort(fmt.Sprintf("10.0.0.%d:20", i+1))
	}
	return out
}

func tup(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{1, 2, byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Proto:   netproto.ProtoTCP,
	}
}

func sec(n int) simtime.Time { return simtime.Time(n) * simtime.Time(simtime.Second) }

func TestSwitchPathStableWithoutUpdates(t *testing.T) {
	b := New(Config{Policy: Migrate10min})
	b.AddVIP(vip(), pool(8))
	first := map[int]dataplane.DIP{}
	for i := 0; i < 100; i++ {
		d, ok := b.Packet(0, tup(i))
		if !ok {
			t.Fatal("unknown VIP")
		}
		first[i] = d
	}
	for i := 0; i < 100; i++ {
		if d, _ := b.Packet(sec(1), tup(i)); d != first[i] {
			t.Fatal("static pool remapped a connection")
		}
	}
	s := b.Stats()
	if s.SLBPackets != 0 || s.SwitchPackets != 200 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestUpdateDetoursVIP(t *testing.T) {
	b := New(Config{Policy: Migrate10min})
	b.AddVIP(vip(), pool(8))
	b.Packet(0, tup(1))
	if err := b.Update(sec(1), vip(), pool(7)); err != nil {
		t.Fatal(err)
	}
	if !b.Detoured(vip()) {
		t.Fatal("VIP not detoured after update")
	}
	// During detour, the SLB's ConnTable keeps the old mapping (PCC).
	d1, _ := b.Packet(0, tup(1))
	d2, _ := b.Packet(sec(2), tup(1))
	if d1 != d2 {
		t.Fatal("detoured connection remapped")
	}
	if b.Stats().SLBPackets == 0 {
		t.Fatal("detour packets not counted as SLB load")
	}
}

func TestEarlyMigrationBreaksOldConns(t *testing.T) {
	b := New(Config{Policy: Migrate1min, Seed: 1})
	b.AddVIP(vip(), pool(10))
	// 1000 connections established before the update.
	for i := 0; i < 1000; i++ {
		b.Packet(0, tup(i))
	}
	b.Update(sec(10), vip(), pool(9)) // remove one DIP
	// Migrate back while all old connections are alive: ~9/10 of the keys
	// remap under ECMP mod-9 vs mod-10.
	broken := b.MigrateDue(sec(70))
	if b.Detoured(vip()) {
		t.Fatal("VIP still detoured after migration")
	}
	frac := float64(broken) / 1000
	if frac < 0.5 {
		t.Fatalf("broken fraction = %.3f, ECMP resize should break most", frac)
	}
	if b.Stats().BrokenConns != uint64(broken) {
		t.Fatal("stats mismatch")
	}
	// A second migration pass must not double count.
	b.Update(sec(80), vip(), pool(9)) // same pool: detour but no remap
	if again := b.MigrateDue(sec(140)); again != 0 {
		t.Fatalf("re-migration broke %d conns; rebinding should be sticky", again)
	}
}

func TestMigratePCCWaitsForOldConns(t *testing.T) {
	b := New(Config{Policy: MigratePCC})
	b.AddVIP(vip(), pool(10))
	for i := 0; i < 50; i++ {
		b.Packet(0, tup(i))
	}
	b.Update(sec(10), vip(), pool(9))
	// Old connections alive: migration must refuse.
	if b.MigrateDue(sec(20)); !b.Detoured(vip()) {
		t.Fatal("Migrate-PCC migrated with old conns alive")
	}
	if b.Stats().BrokenConns != 0 {
		t.Fatal("Migrate-PCC broke connections")
	}
	// End all old connections: the VIP migrates back automatically.
	for i := 0; i < 50; i++ {
		b.ConnEnd(sec(30), tup(i))
	}
	if b.Detoured(vip()) {
		t.Fatal("Migrate-PCC did not migrate after old conns ended")
	}
	if b.Stats().BrokenConns != 0 {
		t.Fatal("Migrate-PCC broke connections at migration")
	}
}

func TestNewConnsDuringDetourSurviveMigration(t *testing.T) {
	b := New(Config{Policy: Migrate1min})
	b.AddVIP(vip(), pool(10))
	b.Update(sec(1), vip(), pool(9))
	// Connections created during the detour use the new pool via mimicked
	// ECMP, so migration must not break them.
	for i := 0; i < 200; i++ {
		b.Packet(sec(2), tup(i))
	}
	if broken := b.MigrateDue(sec(61)); broken != 0 {
		t.Fatalf("migration broke %d post-update conns, want 0", broken)
	}
}

func TestPolicyIntervals(t *testing.T) {
	if Migrate10min.Interval() != simtime.Duration(10*simtime.Minute) {
		t.Fatal("10min interval wrong")
	}
	if Migrate1min.Interval() != simtime.Duration(simtime.Minute) {
		t.Fatal("1min interval wrong")
	}
	if MigratePCC.Interval() != 0 {
		t.Fatal("PCC interval should be 0")
	}
	if Migrate10min.String() != "Migrate-10min" || MigratePCC.String() != "Migrate-PCC" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "Migrate-?" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestConnEndAccounting(t *testing.T) {
	b := New(Config{Policy: Migrate10min})
	b.AddVIP(vip(), pool(4))
	b.Packet(0, tup(1))
	b.Update(sec(5), vip(), pool(3))
	b.ConnEnd(sec(20), tup(1))
	s := b.Stats()
	if s.TotalConnTime != simtime.Duration(20*simtime.Second) {
		t.Fatalf("TotalConnTime = %v", s.TotalConnTime)
	}
	// Detoured from t=5 to end at t=20: 15s of detour time.
	if s.DetourConnTime != simtime.Duration(15*simtime.Second) {
		t.Fatalf("DetourConnTime = %v", s.DetourConnTime)
	}
	if b.LiveConns(vip()) != 0 {
		t.Fatal("conn not removed")
	}
	b.ConnEnd(sec(21), tup(1)) // idempotent
}

func TestErrors(t *testing.T) {
	b := New(Config{})
	if err := b.AddVIP(vip(), nil); err == nil {
		t.Fatal("empty pool accepted")
	}
	b.AddVIP(vip(), pool(2))
	if err := b.AddVIP(vip(), pool(2)); err == nil {
		t.Fatal("duplicate VIP accepted")
	}
	if err := b.Update(0, dataplane.VIP{}, pool(1)); err == nil {
		t.Fatal("unknown VIP update accepted")
	}
	if err := b.Update(0, vip(), nil); err == nil {
		t.Fatal("empty update accepted")
	}
	if _, ok := b.Packet(0, netproto.FiveTuple{Dst: netip.MustParseAddr("9.9.9.9")}); ok {
		t.Fatal("unknown VIP packet accepted")
	}
}

// Detoured reports whether vip is currently served by SLBs.
func (b *Balancer) Detoured(vip dataplane.VIP) bool {
	vs, ok := b.vips[vip]
	return ok && vs.detoured
}

// LiveConns returns the number of tracked connections for vip.
func (b *Balancer) LiveConns(vip dataplane.VIP) int {
	vs, ok := b.vips[vip]
	if !ok {
		return 0
	}
	return len(vs.conns)
}
