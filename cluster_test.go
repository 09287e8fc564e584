package silkroad

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/intent"
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
// fleetPool(8).
func newFleet(t *testing.T, n, pipes int) *Cluster {
	t.Helper()
	cfg := Defaults(50000)
	cfg.Pipes = pipes
	cfg.Clock = NewManualClock(0)
	c, err := NewCluster(ClusterConfig{Switches: n, Switch: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(0, fleetSpec(8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; !c.Reconcile(0); i++ {
		if i > 4*n {
			t.Fatal("bootstrap never converged")
		}
	}
	return c
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

// pumpFleet drives the active drain (or rejoin) to cutover, advancing the
// fleet a millisecond between steps, and returns the cutover time.
func pumpFleet(t *testing.T, c *Cluster, from Time, step func(Time, int) (int, bool, error)) Time {
	t.Helper()
	now := from
	for i := 0; ; i++ {
		if i > 20000 {
			t.Fatal("transfer did not converge")
		}
		_, done, err := step(now, 256)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return now
		}
		now = now.Add(Millisecond)
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
	now := msAt(12)
	c.AdvanceTo(now.Add(Second))
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
	now := msAt(12)
	c.AdvanceTo(now.Add(Second))
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
	latest, _ := c.Switch(1).CurrentPool(testVIP())
	if err := c.ReannounceTo(msAt(2), 0, map[VIP][]DIP{testVIP(): latest}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(msAt(3))
	if err := c.RejoinSwitch(msAt(3), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RejoinSwitch(msAt(3), 1); !errors.Is(err, ErrTransferActive) {
		t.Fatalf("overlapping rejoin: %v, want ErrTransferActive", err)
	}
	if _, _, err := c.DrainStep(msAt(3), 1); !errors.Is(err, ErrNoTransfer) {
		t.Fatalf("DrainStep during a rejoin: %v, want ErrNoTransfer", err)
	}
	end := pumpFleet(t, c, msAt(4), c.RejoinStep)
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
	if _, _, err := c.RejoinStep(0, 1); !errors.Is(err, ErrNoTransfer) {
		t.Fatalf("RejoinStep with nothing active: %v, want ErrNoTransfer", err)
	}
	if err := c.CancelDrain(0); !errors.Is(err, ErrNoTransfer) {
		t.Fatalf("CancelDrain with nothing active: %v, want ErrNoTransfer", err)
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
		c.Reconcile(now)
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
	// then land more flows inside it: they pin to the old version.
	late, lateM := establish(t, c, 400, 440, msAt(100))
	requestAll(t, c, msAt(100), fleetPool(7))
	mid, midM := establish(t, c, 440, 480, msAt(100).Add(100*Microsecond))
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
	end := pumpFleet(t, warm, now, warm.DrainStep)
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
	if _, done, err := c.DrainStep(msAt(51), 64); err != nil || done {
		t.Fatalf("drain finished in one bounded step (done=%v err=%v)", done, err)
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
	end := pumpFleet(t, c, msAt(53), c.DrainStep)
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
	if _, done, err := c.DrainStep(msAt(51), 64); err != nil || done {
		t.Fatalf("drain finished early (done=%v err=%v)", done, err)
	}
	c.AdvanceTo(msAt(60))
	if err := c.CancelRejoin(msAt(60)); !errors.Is(err, ErrNoTransfer) {
		t.Fatalf("CancelRejoin during a drain: %v, want ErrNoTransfer", err)
	}
	if err := c.CancelDrain(msAt(60)); err != nil {
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
	pumpFleet(t, c, msAt(71), c.DrainStep)
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
	if _, done, err := c.DrainStep(msAt(51), 64); err != nil || done {
		t.Fatalf("drain finished early (done=%v err=%v)", done, err)
	}
	if err := c.FailSwitch(msAt(51), 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DrainStep(msAt(52), 64); !errors.Is(err, ErrNoTransfer) {
		t.Fatalf("DrainStep after the receiver failed: %v, want ErrNoTransfer", err)
	}
	if err := c.DrainSwitch(msAt(52), 0); err != nil {
		t.Fatal(err)
	}
	end := pumpFleet(t, c, msAt(52), c.DrainStep)
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
	pumpFleet(t, c, 0, c.DrainStep)
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
	pumpFleet(t, c, msAt(50), c.DrainStep)
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
	cur := fleetPool(8)
	u := intent.NewUpgrader(c, nil, intent.UpgradeConfig{
		Budget: 64, StallTimeout: 20 * Millisecond, BaseBackoff: Millisecond,
		MaxBackoff: 10 * Millisecond, MaxRetries: 6, WarmTimeout: 5 * Millisecond,
		Reannounce: func(now Time, m int) error {
			return c.ReannounceTo(now, m, map[VIP][]DIP{testVIP(): cur})
		},
	})
	type flow struct {
		born   int
		dip    DIP
		member int
		pinned bool
	}
	var flows []flow
	drops, pcc, moved := 0, 0, 0
	for tk := 0; tk < load+life || !u.Done(); tk++ {
		if tk > 40*load {
			t.Fatalf("rollout never finished: phases %v", []intent.UpgradePhase{u.Phase(0), u.Phase(1), u.Phase(2)})
		}
		now := Time(tk) * Time(tick)
		c.AdvanceTo(now)
		if tk%200 == 100 && tk < load {
			cur = fleetPool(6 + tk/200%3)
			for m := 0; m < members; m++ {
				if c.Alive(m) && c.Switch(m).Engine().Dataplane(0).HasVIP(testVIP()) {
					if err := c.Switch(m).Engine().RequestUpdate(now, testVIP(), cur); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if tk >= 150 && tk%30 == 0 && !u.Done() {
			if _, err := u.Step(now); err != nil {
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
		if p := u.Phase(m); p != intent.UpgradeDone {
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
