package silkroad

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/netproto"
)

func TestExportImportRoundtrip(t *testing.T) {
	donor := newSwitch(t)
	recv := newSwitch(t)
	first := map[int]DIP{}
	for i := 0; i < 200; i++ {
		first[i] = process(donor, Time(i)*1000, clientPkt(i, netproto.FlagSYN)).DIP
	}
	donor.AdvanceTo(Time(50 * Millisecond))

	snap := donor.Export(Time(50 * Millisecond))
	if len(snap.Entries) != 200 {
		t.Fatalf("snapshot has %d entries, want 200", len(snap.Entries))
	}
	if snap.Pipes != donor.Pipes() {
		t.Fatalf("snapshot pipes = %d", snap.Pipes)
	}
	// Entries carry the resolved DIP for offline audit.
	for _, e := range snap.Entries {
		if !e.DIP.IsValid() || len(e.Pool) == 0 {
			t.Fatalf("entry not self-contained: %+v", e)
		}
	}

	imported, skipped, err := recv.Import(Time(60*Millisecond), snap)
	if err != nil {
		t.Fatal(err)
	}
	if imported != 200 || skipped != 0 {
		t.Fatalf("imported=%d skipped=%d", imported, skipped)
	}
	now := Time(200 * Millisecond)
	for i := 0; i < 200; i++ {
		res := process(recv, now, clientPkt(i, netproto.FlagACK))
		if !res.ConnHit {
			t.Fatalf("conn %d not installed on receiver", i)
		}
		if res.DIP != first[i] {
			t.Fatalf("conn %d: donor DIP %v, receiver DIP %v", i, first[i], res.DIP)
		}
	}
	// Export again from the receiver: tables agree entry-for-entry.
	snap2 := recv.Export(now)
	if len(snap2.Entries) != len(snap.Entries) {
		t.Fatalf("receiver exports %d entries, donor %d", len(snap2.Entries), len(snap.Entries))
	}
}

func TestClusterMigrateConvergesWithLiveDonor(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Switches: 2, Switch: Defaults(100000)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkClocks(t, c) })
	spec := &ClusterSpec{Version: SpecVersion, VIPs: []VIPSpec{{
		VIP: "20.0.0.1:80/tcp", Pool: []string{"10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20"},
	}}}
	if _, err := c.Apply(0, spec); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(0)
	if !c.Converged() {
		t.Fatal("fleet never converged")
	}

	donor := c.Switch(0)
	first := map[int]DIP{}
	for i := 0; i < 300; i++ {
		first[i] = process(donor, Time(200*Millisecond)+Time(i)*1000, clientPkt(i, netproto.FlagSYN)).DIP
	}
	c.AdvanceTo(Time(250 * Millisecond))

	if err := c.Migrate(Time(250*Millisecond), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(Time(250*Millisecond), 1, 0); !errors.Is(err, ErrTransferActive) {
		t.Fatalf("overlapping Migrate: %v, want ErrTransferActive", err)
	}
	pumpFleet(t, c)
	if st := c.Stats().LastHandoff; st.Imported < 300 {
		t.Fatalf("migrated %d entries, want >= 300 (%+v)", st.Imported, st)
	}
	// The standby serves every connection with the donor's mapping.
	now := Time(400 * Millisecond)
	for i := 0; i < 300; i++ {
		res := process(c.Switch(1), now, clientPkt(i, netproto.FlagACK))
		if !res.ConnHit || res.DIP != first[i] {
			t.Fatalf("conn %d on standby: hit=%v dip=%v want %v", i, res.ConnHit, res.DIP, first[i])
		}
	}
	// The donor kept its table (Migrate pre-warms, it does not drain).
	if got := len(donor.Export(now).Entries); got != 300 {
		t.Fatalf("donor exports %d entries after migrate, want 300", got)
	}
}

func TestMigrateBadIndexes(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Switches: 2, Switch: Defaults(10000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(0, 0, 0); err == nil {
		t.Fatal("self-migration accepted")
	}
	if err := c.Migrate(0, 0, 5); err == nil {
		t.Fatal("bad receiver accepted")
	}
	if err := c.FailSwitch(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(0, 0, 1); err == nil {
		t.Fatal("migration into an out-of-service member accepted")
	}
}

// TestClusterMigrateAfterDivergentReuse: two members can hold the same DIPs
// in different slot orders. Member 0 pins a connection to version 0, so
// when the fleet drops 10.0.0.4 and then adds 10.0.0.99 it reuses version
// 0 with .99 in the dead slot; member 1 has nothing pinned and writes .99
// last in a fresh row. A DIP is picked by slot, so a migrated connection
// keeps its DIP only if the receiver maps it onto a row equal to the
// donor's slot for slot, not onto one with merely the same members.
func TestClusterMigrateAfterDivergentReuse(t *testing.T) {
	c := newFleet(t, 2, 1)
	process(c.Switch(0), 0, clientPkt(100000, FlagSYN))
	now := msAt(10)
	c.AdvanceTo(now)
	rollOut := func(pool []DIP) {
		t.Helper()
		spec := &ClusterSpec{Version: SpecVersion, VIPs: []VIPSpec{{VIP: testVIP().String()}}}
		for _, d := range pool {
			spec.VIPs[0].Pool = append(spec.VIPs[0].Pool, d.String())
		}
		if _, err := c.Apply(now, spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; !c.Converged(); i++ {
			if i > 1000 {
				t.Fatal("rollout never converged")
			}
			now = now.Add(Millisecond)
			c.AdvanceTo(now)
		}
		now = now.Add(50 * Millisecond) // let the last member's update finish
		c.AdvanceTo(now)
	}
	dropped := slices.Delete(fleetPool(8), 3, 4)
	rollOut(dropped)
	rollOut(append(dropped, AddrPort("10.0.0.99:20")))
	rows := [2][]DIP{}
	for m := range rows {
		rows[m], _ = c.Switch(m).CurrentPool(testVIP())
	}
	if slices.Equal(rows[0], rows[1]) {
		t.Fatalf("both members hold %v: the scenario needs rows in different slot orders", rows[0])
	}

	first := map[int]DIP{}
	for i := 0; i < 300; i++ {
		first[i] = process(c.Switch(0), now.Add(Duration(i)*Microsecond), clientPkt(i, FlagSYN)).DIP
	}
	now = now.Add(50 * Millisecond)
	c.AdvanceTo(now)
	if err := c.Migrate(now, 0, 1); err != nil {
		t.Fatal(err)
	}
	pumpFleet(t, c)
	now = now.Add(100 * Millisecond)
	moved := 0
	for i := 0; i < 300; i++ {
		if res := process(c.Switch(1), now, clientPkt(i, FlagACK)); !res.ConnHit || res.DIP != first[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d of 300 migrated connections lost their DIP (member 0 row %v, member 1 row %v)", moved, rows[0], rows[1])
	}
}
