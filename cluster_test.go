package silkroad

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

func msAt(n int) Time { return Time(n) * Time(Millisecond) }

// fleetPool is the n-DIP pool 10.0.0.1:20 .. 10.0.0.n:20.
func fleetPool(n int) []DIP {
	out := make([]DIP, n)
	for i := range out {
		out[i] = AddrPort(fmt.Sprintf("10.0.0.%d:20", i+1))
	}
	return out
}

// fleetSpec declares testVIP on fleetPool(n).
func fleetSpec(n int) *ClusterSpec {
	var pool []string
	for _, d := range fleetPool(n) {
		pool = append(pool, d.String())
	}
	return &ClusterSpec{Version: SpecVersion, VIPs: []VIPSpec{{VIP: testVIP().String(), Pool: pool}}}
}

// newFleet builds an n-member fleet of switches with the given pipe count,
// each provisioned for 50 000 connections, converged on testVIP over
// fleetPool(8). When the test ends, no member's control plane may have been
// driven behind its clock.
func newFleet(t *testing.T, n, pipes int) *Cluster {
	t.Helper()
	return newTracedFleet(t, n, pipes, nil)
}

// newTracedFleet is newFleet with the fleet's rolling reconciler, and so
// any upgrade attached to it, tracing into tr.
func newTracedFleet(t *testing.T, n, pipes int, tr telemetry.Tracer) *Cluster {
	t.Helper()
	cfg := Defaults(50000)
	cfg.Pipes = pipes
	cfg.Clock = NewManualClock(0)
	c, err := NewCluster(ClusterConfig{Switches: n, Switch: cfg, Fleet: FleetConfig{Config: ReconcilerConfig{Tracer: tr}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(0, fleetSpec(8)); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(0)
	if !c.Converged() {
		t.Fatal("bootstrap never converged")
	}
	t.Cleanup(func() { checkClocks(t, c) })
	return c
}

// checkClocks fails t if any member's control plane was advanced behind
// its clock.
func checkClocks(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < c.Switches(); i++ {
		if n := c.Switch(i).Stats().Controlplane.ClockRegressions; n != 0 {
			t.Errorf("member %d: %d control-plane advances behind its clock", i, n)
		}
	}
}

// send routes flow i's packet through the fleet's spray.
func send(c *Cluster, now Time, i int, flags uint8) (member int, res Result) {
	var f Frame
	clientPkt(i, flags).Frame(&f)
	return c.ProcessFrame(now, &f)
}

// requestAll requests pool on every in-service member at once, out of band
// of the rolling reconciler, so every member's update is in flight together.
func requestAll(t *testing.T, c *Cluster, now Time, pool []DIP) {
	t.Helper()
	for i := 0; i < c.Switches(); i++ {
		if !c.Alive(i) {
			continue
		}
		if err := c.Switch(i).Engine().RequestUpdate(now, testVIP(), pool); err != nil {
			t.Fatal(err)
		}
	}
}

// xferProgress reports whether a transfer is active and how many records
// it has moved.
func xferProgress(c *Cluster) (active bool, moved uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.xfer == nil {
		return false, 0
	}
	return true, c.xfer.moved
}

// pumpFleet steps the fleet from deadline to deadline until the active
// transfer completes, and returns the instant it did.
func pumpFleet(t *testing.T, c *Cluster) Time {
	t.Helper()
	var now Time
	for i := 0; ; i++ {
		if active, _ := xferProgress(c); !active {
			return now
		}
		next, ok := c.NextEventTime()
		if !ok || i > 20000 {
			t.Fatal("transfer did not converge")
		}
		now = next
		c.AdvanceTo(now)
	}
}

// establish sends SYNs for flows [lo,hi), 10 µs apart from at, and returns
// each flow's DIP and member.
func establish(t *testing.T, c *Cluster, lo, hi int, at Time) (map[int]DIP, map[int]int) {
	t.Helper()
	dips, members := map[int]DIP{}, map[int]int{}
	now := at
	for i := lo; i < hi; i++ {
		m, res := send(c, now, i, FlagSYN)
		if res.Verdict != VerdictForward {
			t.Fatalf("flow %d dropped at establishment", i)
		}
		dips[i], members[i] = res.DIP, m
		now = now.Add(10 * Microsecond)
	}
	return dips, members
}

// conns sums the fleet's tracked connections over the given members.
func conns(c *Cluster, members ...int) int {
	n := 0
	for _, m := range members {
		n += c.Switch(m).Stats().Connections
	}
	return n
}

func TestClusterSprayDistributesConnections(t *testing.T) {
	c := newFleet(t, 4, 1)
	per := map[int]int{}
	for i := 0; i < 2000; i++ {
		m, res := send(c, Time(i)*1000, i, FlagSYN)
		if res.Verdict != VerdictForward {
			t.Fatal("packet dropped")
		}
		per[m]++
	}
	for i := 0; i < 4; i++ {
		if per[i] < 300 || per[i] > 700 {
			t.Fatalf("switch %d got %d of 2000 (imbalanced): %v", i, per[i], per)
		}
	}
	c.AdvanceTo(msAt(100))
	if got := conns(c, 0, 1, 2, 3); got != 2000 {
		t.Fatalf("tracked connections = %d, want 2000", got)
	}
}

// TestClusterSameMappingAcrossSwitches: members share hash seeds, so a
// connection maps to the same DIP whichever member serves it — what makes
// failover work for latest-version connections.
func TestClusterSameMappingAcrossSwitches(t *testing.T) {
	c := newFleet(t, 3, 1)
	for i := 0; i < 200; i++ {
		var dips []DIP
		for m := 0; m < 3; m++ {
			dips = append(dips, process(c.Switch(m), 0, clientPkt(i, FlagSYN)).DIP)
		}
		if dips[0] != dips[1] || dips[1] != dips[2] {
			t.Fatalf("conn %d maps differently across switches: %v", i, dips)
		}
	}
}

// TestClusterFailLatestVersionSurvives reproduces §7's failure claim: after
// a switch dies, its latest-version connections land on survivors with the
// same DIP.
func TestClusterFailLatestVersionSurvives(t *testing.T) {
	c := newFleet(t, 4, 1)
	const n = 1200
	first, members := establish(t, c, 0, n, 0)
	now := msAt(12).Add(Second)
	c.AdvanceTo(now)
	if err := c.FailSwitch(now, 2); err != nil {
		t.Fatal(err)
	}
	if c.Alive(2) || !c.Alive(0) {
		t.Fatal("Alive wrong after FailSwitch")
	}
	redirected := 0
	for i := 0; i < n; i++ {
		m, res := send(c, now, i, FlagACK)
		if res.Verdict != VerdictForward {
			t.Fatalf("conn %d dropped after failover", i)
		}
		if members[i] == 2 {
			redirected++
			if m == 2 {
				t.Fatal("packet routed to dead switch")
			}
		} else if m != members[i] {
			t.Fatalf("conn %d moved switches (%d->%d) though its switch is healthy", i, members[i], m)
		}
		if res.DIP != first[i] {
			t.Fatalf("latest-version conn %d changed DIP across switch failure", i)
		}
	}
	if redirected == 0 {
		t.Fatal("no connections were on the failed switch")
	}
	if got := c.Stats().Redirected; got != bucketsPerSwitch {
		t.Fatalf("Redirected = %d, want %d", got, bucketsPerSwitch)
	}
}

// TestClusterFailStaleVersionBreaks: connections pinned to an old pool
// version at the failed switch lose that pin and rehash onto the latest
// pool — the breakage §7 concedes. Connections on healthy switches keep
// theirs.
func TestClusterFailStaleVersionBreaks(t *testing.T) {
	c := newFleet(t, 4, 1)
	const n = 1200
	first, members := establish(t, c, 0, n, 0)
	now := msAt(12).Add(Second)
	c.AdvanceTo(now)
	requestAll(t, c, now, fleetPool(7))
	now = now.Add(200 * Millisecond)
	c.AdvanceTo(now)
	if err := c.FailSwitch(now, 1); err != nil {
		t.Fatal(err)
	}
	movedRedirected, movedStayed := 0, 0
	for i := 0; i < n; i++ {
		_, res := send(c, now, i, FlagACK)
		if res.Verdict != VerdictForward || res.DIP == first[i] {
			continue
		}
		if members[i] == 1 {
			movedRedirected++
		} else {
			movedStayed++
		}
	}
	if movedRedirected == 0 {
		t.Fatal("stale-version conns on the failed switch should break (~1/8 remap)")
	}
	if movedStayed != 0 {
		t.Fatalf("%d conns on healthy switches moved", movedStayed)
	}
}

// TestRejoinAfterRestore: a restored member comes back cold and takes no
// traffic until it is re-announced, passes the warm gate and rejoins.
func TestRejoinAfterRestore(t *testing.T) {
	c := newFleet(t, 3, 1)
	if err := c.FailSwitch(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreSwitch(0); err != nil {
		t.Fatal(err)
	}
	if !c.Alive(0) {
		t.Fatal("restore failed")
	}
	for i := 5000; i < 5400; i++ {
		m, res := send(c, msAt(1), i, FlagSYN)
		if m == 0 {
			t.Fatal("cold restored switch received traffic before rejoin")
		}
		if res.Verdict != VerdictForward {
			t.Fatal("survivor dropped a packet")
		}
	}
	if err := c.RejoinSwitch(msAt(2), 0); !errors.Is(err, ErrNotWarm) {
		t.Fatalf("rejoin before re-announce: %v, want ErrNotWarm", err)
	}
	if err := c.ReannounceTo(msAt(2), 0); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(3))
	if err := c.RejoinSwitch(msAt(3), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RejoinSwitch(msAt(3), 1); !errors.Is(err, ErrTransferActive) {
		t.Fatalf("overlapping rejoin: %v, want ErrTransferActive", err)
	}
	end := pumpFleet(t, c)
	served := false
	for i := 5000; i < 5400; i++ {
		m, res := send(c, end, i, FlagACK)
		if m == 0 {
			if res.Verdict != VerdictForward {
				t.Fatal("rejoined switch dropped a packet")
			}
			served = true
		}
	}
	if !served {
		t.Fatal("no traffic reached the rejoined switch")
	}
	if got := c.Stats().Migrated; got != bucketsPerSwitch {
		t.Fatalf("Migrated = %d, want the member's %d buckets back", got, bucketsPerSwitch)
	}
}

func TestClusterFailureErrors(t *testing.T) {
	c := newFleet(t, 2, 1)
	if err := c.FailSwitch(0, 9); err == nil {
		t.Fatal("bad index accepted")
	}
	if err := c.RestoreSwitch(0); err == nil {
		t.Fatal("restoring a live switch accepted")
	}
	if err := c.FailSwitch(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailSwitch(0, 0); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("double failure: %v, want ErrSwitchDown", err)
	}
	if err := c.FailSwitch(0, 1); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("failing the last switch: %v, want ErrNoPeer", err)
	}
	if err := c.DrainSwitch(0, 1); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("drain with no peer: %v, want ErrNoPeer", err)
	}
	if err := c.UpgradeSwitch(0); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("upgrading a failed switch: %v, want ErrSwitchDown", err)
	}
	if err := c.CancelTransfer(0); !errors.Is(err, ErrNoTransfer) {
		t.Fatalf("CancelTransfer with nothing active: %v, want ErrNoTransfer", err)
	}
}

// TestClusterWideUpdateKeepsPCC: a rolling spec update across the fleet
// keeps every established connection on its DIP.
func TestClusterWideUpdateKeepsPCC(t *testing.T) {
	c := newFleet(t, 4, 1)
	const n = 800
	first, _ := establish(t, c, 0, n, 0)
	now := msAt(10)
	c.AdvanceTo(now.Add(Second))
	now = now.Add(Second)
	if _, err := c.Apply(now, fleetSpec(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; !c.Converged(); i++ {
		if i > 1000 {
			t.Fatal("rolling update never converged")
		}
		now = now.Add(Millisecond)
		c.AdvanceTo(now)
	}
	for i := 0; i < n; i++ {
		if _, res := send(c, now, i, FlagACK); res.Verdict == VerdictForward && res.DIP != first[i] {
			t.Fatalf("conn %d moved across cluster-wide update", i)
		}
	}
}

// midUpdateFlows builds a fleet where flows [0,400) are established on
// fleetPool(8), an update to fleetPool(7) is requested, and flows
// [400,480) land inside the update's recording window — pinned to the
// retiring version. Returns each flow's DIP and member and the post-update
// time.
func midUpdateFlows(t *testing.T) (*Cluster, map[int]DIP, map[int]int, Time) {
	t.Helper()
	c := newFleet(t, 3, 1)
	dips, members := establish(t, c, 0, 400, 0)
	c.AdvanceTo(msAt(50))
	// Queue fresh learns so the update's recording window stays open,
	// then land more flows inside it: they pin to the old version. The
	// late flows take 100–100.39 ms, so the update and the mid flows follow.
	late, lateM := establish(t, c, 400, 440, msAt(100))
	requestAll(t, c, msAt(100).Add(400*Microsecond), fleetPool(7))
	mid, midM := establish(t, c, 440, 480, msAt(100).Add(500*Microsecond))
	for _, set := range []struct {
		d map[int]DIP
		m map[int]int
	}{{late, lateM}, {mid, midM}} {
		for i, d := range set.d {
			dips[i], members[i] = d, set.m[i]
		}
	}
	c.AdvanceTo(msAt(400))
	return c, dips, members, msAt(400)
}

// TestClusterMidUpdateFlowBreaksOnFailButSurvivesDrain: a flow learned
// mid-update is pinned to a retiring pool version that exists only in its
// own switch's ConnTable. Cold failover loses that state and the flow
// rehashes; a warm drain migrates the pinned mapping and the flow keeps
// its DIP.
func TestClusterMidUpdateFlowBreaksOnFailButSurvivesDrain(t *testing.T) {
	const donor = 1

	cold, dips, members, now := midUpdateFlows(t)
	if err := cold.FailSwitch(now, donor); err != nil {
		t.Fatal(err)
	}
	broken := 0
	for i, first := range dips {
		if members[i] != donor {
			continue
		}
		if _, res := send(cold, now, i, FlagACK); res.Verdict != VerdictForward || res.DIP != first {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("cold failover broke no flows — the regression this test pins is gone")
	}

	warm, dips, members, now := midUpdateFlows(t)
	if err := warm.DrainSwitch(now, donor); err != nil {
		t.Fatal(err)
	}
	end := pumpFleet(t, warm)
	if err := warm.UpgradeSwitch(donor); err != nil {
		t.Fatal(err)
	}
	onDonor := 0
	for i, first := range dips {
		if members[i] != donor {
			continue
		}
		onDonor++
		m, res := send(warm, end, i, FlagACK)
		if res.Verdict != VerdictForward {
			t.Fatalf("flow %d dropped after warm drain", i)
		}
		if m == donor {
			t.Fatalf("flow %d still routed to the drained switch", i)
		}
		if res.DIP != first {
			t.Fatalf("flow %d changed DIP across warm drain: %v -> %v", i, first, res.DIP)
		}
	}
	if onDonor == 0 {
		t.Fatal("no flows were on the drained switch")
	}
	if st := warm.Stats(); st.Migrated == 0 || st.LastHandoff.Imported == 0 {
		t.Fatalf("no migration recorded: %+v", st)
	}
}

// TestDrainDonorNeverPauses: the donor keeps learning new flows while its
// shard is exported, and the delta stream carries them over.
func TestDrainDonorNeverPauses(t *testing.T) {
	c := newFleet(t, 3, 1)
	dips, members := establish(t, c, 0, 600, 0)
	c.AdvanceTo(msAt(50))
	const donor = 0
	if err := c.DrainSwitch(msAt(50), donor); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(51))
	if active, moved := xferProgress(c); !active || moved == 0 {
		t.Fatalf("drain finished in one paced pump, or never pumped (active=%v moved=%d)", active, moved)
	}
	late, lateM := establish(t, c, 600, 700, msAt(52))
	donorSawLate := false
	for i, m := range lateM {
		dips[i], members[i] = late[i], m
		donorSawLate = donorSawLate || m == donor
	}
	if !donorSawLate {
		t.Fatal("no mid-drain flow landed on the donor — packet path paused?")
	}
	end := pumpFleet(t, c)
	if c.Stats().LastHandoff.Deltas == 0 {
		t.Fatal("mid-drain flows did not ride the delta stream")
	}
	for i, first := range dips {
		m, res := send(c, end, i, FlagACK)
		if res.Verdict != VerdictForward {
			t.Fatalf("flow %d dropped", i)
		}
		if m == donor {
			t.Fatalf("flow %d routed to drained switch", i)
		}
		if res.DIP != first {
			t.Fatalf("flow %d changed DIP (established on switch %d)", i, members[i])
		}
	}
}

// TestDrainCancelRollsBack: an abandoned drain leaves the spray, the donor
// and the receivers exactly as they were.
func TestDrainCancelRollsBack(t *testing.T) {
	c := newFleet(t, 3, 1)
	dips, _ := establish(t, c, 0, 600, 0)
	c.AdvanceTo(msAt(50))
	before := slices.Clone(c.spray)
	donorConns, peerConns := conns(c, 1), conns(c, 0, 2)

	if err := c.DrainSwitch(msAt(50), 1); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(51))
	if active, moved := xferProgress(c); !active || moved == 0 {
		t.Fatalf("drain finished early, or never pumped (active=%v moved=%d)", active, moved)
	}
	if err := c.CancelTransfer(msAt(51)); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(70))
	if !slices.Equal(c.spray, before) {
		t.Fatal("cancel left the spray modified")
	}
	if got := conns(c, 1); got != donorConns {
		t.Fatalf("donor tracks %d conns after cancel, want %d", got, donorConns)
	}
	if got := conns(c, 0, 2); got != peerConns {
		t.Fatalf("receivers track %d conns after unwind, want %d", got, peerConns)
	}
	for i, first := range dips {
		if _, res := send(c, msAt(70), i, FlagACK); res.Verdict != VerdictForward || res.DIP != first {
			t.Fatalf("flow %d disturbed by cancelled drain", i)
		}
	}
	if err := c.DrainSwitch(msAt(71), 1); err != nil {
		t.Fatal(err)
	}
	pumpFleet(t, c)
}

// TestDrainFailedReceiverCancels: failing a receiver mid-drain cancels the
// drain (its imports unwind) instead of wedging it on the dead member's
// queued inserts or cutting buckets over to it. A second drain then moves
// the donor's shard to the survivor.
func TestDrainFailedReceiverCancels(t *testing.T) {
	c := newFleet(t, 3, 1)
	dips, _ := establish(t, c, 0, 600, 0)
	c.AdvanceTo(msAt(50))
	if err := c.DrainSwitch(msAt(50), 0); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(51))
	if active, moved := xferProgress(c); !active || moved == 0 {
		t.Fatalf("drain finished early, or never pumped (active=%v moved=%d)", active, moved)
	}
	if err := c.FailSwitch(msAt(51), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CancelTransfer(msAt(52)); !errors.Is(err, ErrNoTransfer) {
		t.Fatalf("CancelTransfer after the receiver failed: %v, want ErrNoTransfer", err)
	}
	if err := c.DrainSwitch(msAt(52), 0); err != nil {
		t.Fatal(err)
	}
	end := pumpFleet(t, c)
	if slices.Contains(c.spray, 2) || slices.Contains(c.spray, 0) {
		t.Fatal("a bucket still points at the failed or the drained member")
	}
	for i := range dips {
		if _, res := send(c, end, i, FlagACK); res.Verdict != VerdictForward {
			t.Fatalf("established flow %d dropped", i)
		}
	}
}

// TestClusterUpgradeRequiresDrain: the upgrade path refuses to take down a
// switch that still owns traffic.
func TestClusterUpgradeRequiresDrain(t *testing.T) {
	c := newFleet(t, 3, 1)
	if err := c.UpgradeSwitch(0); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("undrained upgrade: %v, want ErrNotDrained", err)
	}
	if err := c.DrainSwitch(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainSwitch(0, 1); !errors.Is(err, ErrTransferActive) {
		t.Fatalf("overlapping drain: %v, want ErrTransferActive", err)
	}
	pumpFleet(t, c)
	if err := c.UpgradeSwitch(0); err != nil {
		t.Fatal(err)
	}
	if c.Alive(0) {
		t.Fatal("upgrade did not take the switch down")
	}
	if err := c.UpgradeSwitch(0); err == nil {
		t.Fatal("double upgrade accepted")
	}
}

// TestClusterShadow: the fleet's PCC probe follows the spray and resolves
// the pinned backend, before and after a migration.
func TestClusterShadow(t *testing.T) {
	c := newFleet(t, 3, 1)
	dips, members := establish(t, c, 0, 300, 0)
	c.AdvanceTo(msAt(50))
	for i, first := range dips {
		m, _, d, ok := c.Shadow(clientPkt(i, 0).Tuple)
		if !ok || m != members[i] || d != first {
			t.Fatalf("flow %d shadow mismatch: member=%d dip=%v ok=%v", i, m, d, ok)
		}
	}
	if err := c.DrainSwitch(msAt(50), 2); err != nil {
		t.Fatal(err)
	}
	pumpFleet(t, c)
	for i, first := range dips {
		m, _, d, ok := c.Shadow(clientPkt(i, 0).Tuple)
		if !ok {
			t.Fatalf("flow %d lost its shadow after drain", i)
		}
		if m == 2 {
			t.Fatalf("flow %d shadow still on drained member", i)
		}
		if d != first {
			t.Fatalf("flow %d shadow DIP moved: %v -> %v", i, first, d)
		}
	}
}

// TestClusterMultiPipeRollingUpgrade rolls a fleet of two-pipe switches
// through drain -> upgrade -> restore -> rejoin, one member at a time,
// under traffic and pool churn: every transfer routes entries across the
// receivers' pipes, and no established flow changes DIP or is dropped.
func TestClusterMultiPipeRollingUpgrade(t *testing.T) {
	const (
		tick    = 100 * Microsecond
		load    = 1200 // ticks of arrivals
		life    = 600  // ticks a flow lives
		stride  = 16   // revisit period
		members = 3
	)
	c := newFleet(t, members, 2)
	var u *Upgrader
	type flow struct {
		born   int
		dip    DIP
		member int
		pinned bool
	}
	var flows []flow
	drops, pcc, moved := 0, 0, 0
	for tk := 0; tk < load+life || u == nil || !u.Done(); tk++ {
		if tk > 40*load {
			t.Fatalf("rollout never finished: phases %v", []UpgradePhase{u.Phase(0), u.Phase(1), u.Phase(2)})
		}
		now := Time(tk) * Time(tick)
		c.AdvanceTo(now)
		if tk%200 == 100 && tk < load {
			cur := fleetPool(6 + tk/200%3)
			for m := 0; m < members; m++ {
				if c.Alive(m) && c.Switch(m).Engine().Dataplane(0).HasVIP(testVIP()) {
					if err := c.Switch(m).Engine().RequestUpdate(now, testVIP(), cur); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if tk == 150 {
			var err error
			if u, err = c.StartUpgrade(now, nil, UpgradeConfig{
				StallTimeout: 20 * Millisecond, BaseBackoff: Millisecond,
				MaxBackoff: 10 * Millisecond, MaxRetries: 6, WarmTimeout: 5 * Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range flows {
			f := &flows[i]
			if tk-f.born >= life || i%stride != tk%stride {
				continue
			}
			m, res := send(c, now, i, FlagACK)
			switch {
			case !f.pinned:
				if sm, _, dip, ok := c.Shadow(clientPkt(i, 0).Tuple); ok && dip.IsValid() {
					f.dip, f.member, f.pinned = dip, sm, true
				}
			case res.Verdict != VerdictForward:
				drops++
			case res.DIP != f.dip:
				pcc++
			case m != f.member:
				f.member = m
				moved++
			}
		}
		if tk < load && tk%80 < 20 {
			for k := 0; k < 2; k++ {
				flows = append(flows, flow{born: tk})
				send(c, now, len(flows)-1, FlagSYN)
			}
		}
	}
	if pcc != 0 || drops != 0 {
		t.Fatalf("PCC violations %d, established-flow drops %d", pcc, drops)
	}
	if failed := u.Failed(); len(failed) != 0 {
		t.Fatalf("members %v failed their upgrade", failed)
	}
	for m := 0; m < members; m++ {
		if p := u.Phase(m); p != UpgradeDone {
			t.Fatalf("member %d finished in phase %v", m, p)
		}
	}
	if moved == 0 || c.Stats().Migrated == 0 {
		t.Fatalf("no flow moved members warm (moved %d, %+v)", moved, c.Stats())
	}
	// Every member's both pipes hold state again after the round trip.
	for m := 0; m < members; m++ {
		for _, ps := range c.Switch(m).PerPipe() {
			if ps.Connections == 0 {
				t.Fatalf("member %d pipe %d holds no connections after the rollout", m, ps.Pipe)
			}
		}
	}
}

// TestClusterTimeline drives a 3-member fleet by its one deadline alone —
// NextEventTime, then AdvanceTo to it — with ops at fixed instants: a spec
// rollout, a drain and rejoin of one member, a Migrate, and a rolling
// upgrade of all three, under traffic. Driving the same ops with AdvanceTo
// called only at each op's instant must end in the same fleet: AdvanceTo
// steps from deadline to deadline itself, so no gate waits on how far a
// caller reaches. Once idle, the converged fleet has no deadline at or
// before its clock, and every established flow kept its DIP.
func TestClusterTimeline(t *testing.T) {
	const flows = 500
	var u *Upgrader
	dips := map[int]DIP{}
	syns := func(lo, hi int) func(*Cluster, Time) error {
		return func(c *Cluster, now Time) error {
			for i := lo; i < hi; i++ {
				_, res := send(c, now, i, FlagSYN)
				if res.Verdict != VerdictForward {
					return fmt.Errorf("flow %d dropped at establishment", i)
				}
				dips[i] = res.DIP
			}
			return nil
		}
	}
	ops := []struct {
		at Time
		do func(*Cluster, Time) error
	}{
		{msAt(1), syns(0, 300)},
		{msAt(10), func(c *Cluster, now Time) error { _, err := c.Apply(now, fleetSpec(7)); return err }},
		{msAt(11), syns(300, 400)},
		{msAt(60), func(c *Cluster, now Time) error { return c.DrainSwitch(now, 1) }},
		{msAt(61), syns(400, 450)},
		{msAt(100), func(c *Cluster, now Time) error {
			if err := c.UpgradeSwitch(1); err != nil {
				return err
			}
			if err := c.RestoreSwitch(1); err != nil {
				return err
			}
			return c.ReannounceTo(now, 1)
		}},
		{msAt(110), func(c *Cluster, now Time) error { return c.RejoinSwitch(now, 1) }},
		{msAt(200), func(c *Cluster, now Time) error { return c.Migrate(now, 0, 2) }},
		{msAt(300), func(c *Cluster, now Time) (err error) {
			u, err = c.StartUpgrade(now, nil, UpgradeConfig{StallTimeout: 20 * Millisecond,
				BaseBackoff: Millisecond, MaxBackoff: 10 * Millisecond, WarmTimeout: 5 * Millisecond})
			return err
		}},
		{msAt(301), syns(450, flows)},
	}
	const end = Time(2 * Second)

	type outcome struct {
		spray  []int
		gen    uint64
		stats  ClusterStats
		conns  [3]int
		phases [3]UpgradePhase
	}
	run := func(stepped bool) (*Cluster, outcome) {
		c := newFleet(t, 3, 1)
		// Each op runs at its instant; between ops the fleet moves by its
		// own deadlines (stepped) or by one AdvanceTo to the next op.
		advance := func(to Time) {
			for stepped {
				next, ok := c.NextEventTime()
				if !ok || !next.Before(to) {
					break
				}
				c.AdvanceTo(next)
			}
			c.AdvanceTo(to)
		}
		for _, o := range ops {
			advance(o.at)
			if err := o.do(c, o.at); err != nil {
				t.Fatalf("op at %v: %v", o.at, err)
			}
		}
		advance(end)
		if next, ok := c.NextEventTime(); ok && !next.After(end) {
			t.Fatalf("idle fleet still due at %v, clock %v", next, end)
		}
		out := outcome{spray: slices.Clone(c.spray), gen: c.Generation(), stats: c.Stats()}
		for m := range out.conns {
			out.conns[m] = c.Switch(m).Stats().Connections
			out.phases[m] = u.Phase(m)
		}
		for i := 0; i < flows; i++ {
			if _, res := send(c, end, i, FlagACK); res.Verdict != VerdictForward || res.DIP != dips[i] {
				t.Fatalf("flow %d: %v to %v, established on %v", i, res.Verdict, res.DIP, dips[i])
			}
		}
		return c, out
	}

	c, stepped := run(true)
	if !c.Converged() || stepped.gen != 2 {
		t.Fatalf("rollout did not converge at generation 2 (gen %d)", stepped.gen)
	}
	if !u.Done() || len(u.Failed()) != 0 || u.Rollbacks != 0 {
		t.Fatalf("upgrade: done=%v failed=%v rollbacks=%d, phases %v", u.Done(), u.Failed(), u.Rollbacks, stepped.phases)
	}
	// Buckets moved warm: member 1's shard out and back, then every
	// member's out and back in the upgrade.
	if want := uint64(2*bucketsPerSwitch + 3*2*bucketsPerSwitch); stepped.stats.Migrated != want {
		t.Fatalf("Migrated = %d, want %d", stepped.stats.Migrated, want)
	}
	for b, m := range stepped.spray {
		if m != c.origin[b] {
			t.Fatalf("bucket %d on member %d after the rejoins, origin %d", b, m, c.origin[b])
		}
	}
	if _, once := run(false); !reflect.DeepEqual(stepped, once) {
		t.Fatalf("fleet differs with AdvanceTo only at op instants:\nstepped %+v\nonce    %+v", stepped, once)
	}
}

// TestClusterTracesIntoMemberDataplaneTracer: a fleet whose members set only
// Dataplane.Tracer, with no Telemetry, FlightRecorder or Fleet.Tracer, traces
// its rollout there: every member's apply of the staged generation shows up
// as a KindReconcile event.
func TestClusterTracesIntoMemberDataplaneTracer(t *testing.T) {
	log := &upgradeLog{}
	cfg := Defaults(1000)
	cfg.Clock = NewManualClock(0)
	cfg.Dataplane.Tracer = log
	c, err := NewCluster(ClusterConfig{Switches: 3, Switch: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(0, fleetSpec(4)); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(10))
	if !c.Converged() {
		t.Fatal("rollout never converged")
	}
	applied := map[int]bool{}
	for _, e := range log.events {
		if e.Kind == telemetry.KindReconcile && e.ReconcileStep == telemetry.ReconcileApply && e.Generation == 1 {
			applied[e.Member] = true
		}
	}
	if len(applied) != 3 {
		t.Fatalf("rollout traced applies on members %v, want all 3", applied)
	}
}
