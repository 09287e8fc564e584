package intent

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/dataplane"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func mustVIP(t *testing.T, s string) dataplane.VIP {
	t.Helper()
	v, err := ParseVIP(s)
	if err != nil {
		t.Fatalf("ParseVIP(%q): %v", s, err)
	}
	return v
}

func dip(s string) dataplane.DIP { return netip.MustParseAddrPort(s) }

// fakeTarget is a scriptable in-memory switch: pools keyed by VIP, plus
// per-operation failure injection and a settable pending-work level.
type fakeTarget struct {
	pools   map[dataplane.VIP][]dataplane.DIP
	meters  map[dataplane.VIP]float64
	pending int

	// failNext[op] errors the next n calls of that op ("add", "remove",
	// "update"), then succeeds.
	failNext map[string]int
	failWith error

	calls []string // op log, e.g. "add 10.0.0.1:80/tcp"
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		pools:    make(map[dataplane.VIP][]dataplane.DIP),
		meters:   make(map[dataplane.VIP]float64),
		failNext: make(map[string]int),
		failWith: cuckoo.ErrTableFull,
	}
}

func (f *fakeTarget) fail(op string) bool {
	if f.failNext[op] > 0 {
		f.failNext[op]--
		return true
	}
	return false
}

func (f *fakeTarget) ObservedVIPs() []dataplane.VIP {
	var out []dataplane.VIP
	for v := range f.pools {
		out = append(out, v)
	}
	return out
}

func (f *fakeTarget) ObservedPool(vip dataplane.VIP) ([]dataplane.DIP, bool) {
	pool, ok := f.pools[vip]
	return pool, ok
}

func (f *fakeTarget) AddVIP(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP, meter float64) error {
	f.calls = append(f.calls, "add "+FormatVIP(vip))
	if f.fail("add") {
		return f.failWith
	}
	if _, ok := f.pools[vip]; ok {
		return dataplane.ErrVIPExists
	}
	f.pools[vip] = append([]dataplane.DIP(nil), pool...)
	f.meters[vip] = meter
	return nil
}

func (f *fakeTarget) RemoveVIP(now simtime.Time, vip dataplane.VIP) error {
	f.calls = append(f.calls, "remove "+FormatVIP(vip))
	if f.fail("remove") {
		return f.failWith
	}
	if _, ok := f.pools[vip]; !ok {
		return dataplane.ErrUnknownVIP
	}
	delete(f.pools, vip)
	delete(f.meters, vip)
	return nil
}

func (f *fakeTarget) UpdatePool(now simtime.Time, vip dataplane.VIP, pool []dataplane.DIP) error {
	f.calls = append(f.calls, "update "+FormatVIP(vip))
	if f.fail("update") {
		return f.failWith
	}
	if _, ok := f.pools[vip]; !ok {
		return dataplane.ErrUnknownVIP
	}
	f.pools[vip] = append([]dataplane.DIP(nil), pool...)
	return nil
}

func (f *fakeTarget) PendingWork() int { return f.pending }

func specOf(vips ...VIPSpec) *ClusterSpec {
	return &ClusterSpec{Version: SpecVersion, VIPs: vips}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		spec   *ClusterSpec
		fields []string // expected FieldError fields (substring match)
	}{
		{"ok", specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}}), nil},
		{"ok udp", specOf(VIPSpec{VIP: "10.0.0.1:53/udp", Pool: []string{"1.1.1.1:53"}}), nil},
		{"bad version", &ClusterSpec{Version: "silkroad/v9", VIPs: []VIPSpec{
			{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}}}}, []string{"version"}},
		{"bad vip", specOf(VIPSpec{VIP: "nonsense", Pool: []string{"1.1.1.1:8080"}}),
			[]string{"vips[0].vip"}},
		{"bad proto", specOf(VIPSpec{VIP: "10.0.0.1:80/icmp", Pool: []string{"1.1.1.1:8080"}}),
			[]string{"vips[0].vip"}},
		{"empty pool", specOf(VIPSpec{VIP: "10.0.0.1:80"}), []string{"vips[0].pool"}},
		{"bad dip", specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"not-a-dip"}}),
			[]string{"vips[0].pool[0]"}},
		{"duplicate vip", specOf(
			VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}},
			VIPSpec{VIP: "10.0.0.1:80/tcp", Pool: []string{"1.1.1.2:8080"}}),
			[]string{"vips[1].vip"}},
		{"negative meter", specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"},
			MeterBytesPerSec: -1}), []string{"meter_bytes_per_sec"}},
		{"all errors reported", specOf(
			VIPSpec{VIP: "nope", Pool: nil, MeterBytesPerSec: -2}),
			[]string{"vips[0].vip", "vips[0].pool", "meter_bytes_per_sec"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if len(tc.fields) == 0 {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("want *ValidationError, got %v", err)
			}
			for _, want := range tc.fields {
				found := false
				for _, fe := range verr.Errors {
					if strings.Contains(fe.Field, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no error for field %q in %v", want, verr.Errors)
				}
			}
		})
	}
}

func TestParseSpecUnknownField(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"version":"silkroad/v1","vipz":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestNormalizeGenerations(t *testing.T) {
	s := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}})

	d, err := s.Normalize(3)
	if err != nil || d.Generation != 4 {
		t.Fatalf("auto-assign: gen=%d err=%v, want 4", d.Generation, err)
	}
	s.Generation = 2
	if _, err := s.Normalize(3); err == nil {
		t.Fatal("stale generation accepted")
	}
	s.Generation = 7
	d, err = s.Normalize(3)
	if err != nil || d.Generation != 7 {
		t.Fatalf("explicit: gen=%d err=%v, want 7", d.Generation, err)
	}
}

func TestSamePool(t *testing.T) {
	a, b, c := dip("1.1.1.1:80"), dip("1.1.1.2:80"), dip("1.1.1.3:80")
	cases := []struct {
		x, y []dataplane.DIP
		want bool
	}{
		{nil, nil, true},
		{[]dataplane.DIP{a, b}, []dataplane.DIP{b, a}, true},
		{[]dataplane.DIP{a, a, b}, []dataplane.DIP{a, b, a}, true},
		{[]dataplane.DIP{a, b}, []dataplane.DIP{a, c}, false},
		{[]dataplane.DIP{a, a}, []dataplane.DIP{a}, false},
		{[]dataplane.DIP{a, a, b}, []dataplane.DIP{a, b, b}, false},
	}
	for i, tc := range cases {
		if got := SamePool(tc.x, tc.y); got != tc.want {
			t.Errorf("case %d: SamePool=%v, want %v", i, got, tc.want)
		}
	}
}

// TestBackoffCapped pins the one capped exponential backoff that member
// retries, rollout retries and upgrade retries share, over attempts 1–8.
func TestBackoffCapped(t *testing.T) {
	ms := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
	cases := []struct {
		name      string
		base, max simtime.Duration
		want      [8]simtime.Duration
	}{
		{"doubling", ms(1), ms(8), [8]simtime.Duration{ms(1), ms(2), ms(4), ms(8), ms(8), ms(8), ms(8), ms(8)}},
		{"uncapped", ms(1), simtime.Second, [8]simtime.Duration{ms(1), ms(2), ms(4), ms(8), ms(16), ms(32), ms(64), ms(128)}},
		{"cap between doublings", ms(3), ms(10), [8]simtime.Duration{ms(3), ms(6), ms(10), ms(10), ms(10), ms(10), ms(10), ms(10)}},
		{"base is max", ms(5), ms(5), [8]simtime.Duration{ms(5), ms(5), ms(5), ms(5), ms(5), ms(5), ms(5), ms(5)}},
	}
	for _, tc := range cases {
		for n, want := range tc.want {
			if got := Backoff(tc.base, tc.max, n+1); got != want {
				t.Errorf("%s: backoff(attempt %d) = %v, want %v", tc.name, n+1, got, want)
			}
		}
	}
}

// TestReconcileConverges applies a spec to a clean fake and checks the
// desired VIPs land with Applied conditions at the right generation.
func TestReconcileConverges(t *testing.T) {
	ft := newFakeTarget()
	r := New(ft, Config{})
	spec := specOf(
		VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080", "1.1.1.2:8080"}},
		VIPSpec{VIP: "10.0.0.2:443", Pool: []string{"2.2.2.1:443"}, MeterBytesPerSec: 1e6},
	)
	d, err := spec.Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	r.SetDesired(0, d)
	r.Reconcile(0)

	if !r.Converged() {
		t.Fatalf("not converged: %+v", r.Statuses())
	}
	for _, st := range r.Statuses() {
		if st.Condition != CondApplied || st.ObservedGeneration != 1 {
			t.Errorf("status %+v, want Applied@1", st)
		}
	}
	if got := ft.meters[mustVIP(t, "10.0.0.2:443")]; got != 1e6 {
		t.Errorf("meter = %v, want 1e6", got)
	}
}

// TestReconcileIdempotent is the idempotency golden: re-applying an
// unchanged spec (same content, new generation) must issue zero writes.
func TestReconcileIdempotent(t *testing.T) {
	ft := newFakeTarget()
	r := New(ft, Config{})
	spec := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080", "1.1.1.2:8080"}})

	d, _ := spec.Normalize(0)
	r.SetDesired(0, d)
	r.Reconcile(0)
	writes, calls := r.Writes(), len(ft.calls)

	// Same content re-normalized at the next generation; pool reordered to
	// prove multiset comparison.
	spec2 := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.2:8080", "1.1.1.1:8080"}})
	d2, _ := spec2.Normalize(r.Generation())
	r.SetDesired(simtime.Time(simtime.Second), d2)
	r.Reconcile(simtime.Time(simtime.Second))

	if !r.Converged() {
		t.Fatalf("not converged after re-apply: %+v", r.Statuses())
	}
	if r.Writes() != writes || len(ft.calls) != calls {
		t.Fatalf("re-apply wrote: writes %d->%d, calls %d->%d (%v)",
			writes, r.Writes(), calls, len(ft.calls), ft.calls)
	}
	if g := r.Statuses()[0].ObservedGeneration; g != 2 {
		t.Errorf("observed generation = %d, want 2", g)
	}
}

// TestReconcileRetryAfterTableFull injects a one-time mid-apply
// ErrTableFull and checks the key degrades, backs off, and converges on
// the retry.
func TestReconcileRetryAfterTableFull(t *testing.T) {
	ft := newFakeTarget()
	ft.failNext["add"] = 1
	r := New(ft, Config{BaseBackoff: simtime.Millisecond})
	d, _ := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}}).Normalize(0)
	r.SetDesired(0, d)
	r.Reconcile(0)

	if r.Converged() {
		t.Fatal("converged despite injected failure")
	}
	st := r.Statuses()[0]
	if st.Condition != CondDegraded || st.Reason != "Retrying" {
		t.Fatalf("status %+v, want Degraded/Retrying", st)
	}
	due, ok := r.NextEventTime()
	if !ok || due != simtime.Time(simtime.Millisecond) {
		t.Fatalf("NextEventTime = %v,%v, want 1ms backoff", due, ok)
	}

	// Before the backoff deadline the key must not re-fire.
	r.Reconcile(due - 1)
	if len(ft.calls) != 1 {
		t.Fatalf("retried before backoff: %v", ft.calls)
	}
	r.Reconcile(due)
	if !r.Converged() {
		t.Fatalf("not converged after retry: %+v", r.Statuses())
	}
}

// roundLog is a tracer that keeps the instant of every reconcile round.
type roundLog []simtime.Time

func (l *roundLog) RegisterVIP(int, telemetry.VIPKey) *telemetry.VIPSeries { return nil }

func (l *roundLog) Trace(e telemetry.Event) {
	if e.ReconcileStep == telemetry.ReconcileRound {
		*l = append(*l, e.Now)
	}
}

// TestReconcilerAdvanceRunsEachDeadline: one Advance across several retry
// deadlines runs a round at each, so every backoff counts from the deadline
// its retry was due at, not from the Advance target.
func TestReconcilerAdvanceRunsEachDeadline(t *testing.T) {
	ft := newFakeTarget()
	ft.failNext["add"] = 3
	var rounds roundLog
	r := New(ft, Config{BaseBackoff: simtime.Millisecond, Tracer: &rounds})
	d, _ := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}}).Normalize(0)
	r.SetDesired(0, d)
	r.Advance(simtime.Time(simtime.Second))

	ms := func(n int64) simtime.Time { return simtime.Time(n * int64(simtime.Millisecond)) }
	// Fails at 0, 1ms and 3ms (backoffs 1, 2 and 4ms), applies at 7ms.
	want := roundLog{0, ms(1), ms(3), ms(7)}
	if fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Fatalf("rounds at %v, want %v", rounds, want)
	}
	if !r.Converged() {
		t.Fatalf("not converged: %+v", r.Statuses())
	}
	if at, ok := r.NextEventTime(); ok {
		t.Fatalf("NextEventTime = %v after converging, want none", at)
	}
}

// TestReconcileRetriesExhausted drives a permanently failing key past its
// budget and checks it lands in CondError but keeps retrying.
func TestReconcileRetriesExhausted(t *testing.T) {
	ft := newFakeTarget()
	ft.failNext["add"] = 100
	r := New(ft, Config{BaseBackoff: simtime.Millisecond, MaxBackoff: simtime.Millisecond,
		MaxRetries: 3})
	d, _ := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}}).Normalize(0)
	r.SetDesired(0, d)

	now := simtime.Time(0)
	for i := 0; i < 6; i++ {
		r.Reconcile(now)
		now = now.Add(simtime.Millisecond)
	}
	st := r.Statuses()[0]
	if st.Condition != CondError || st.Reason != "RetriesExhausted" {
		t.Fatalf("status %+v, want Error/RetriesExhausted", st)
	}
	if _, ok := r.NextEventTime(); !ok {
		t.Fatal("errored key abandoned: no retry queued")
	}

	// The fault clears; the next due round converges and the status heals.
	ft.failNext["add"] = 0
	r.Reconcile(now)
	if !r.Converged() {
		t.Fatalf("not converged after fault cleared: %+v", r.Statuses())
	}
}

// TestReconcileMeterChange checks a meter-only change converges via
// remove+re-add (meters bind at VIP installation).
func TestReconcileMeterChange(t *testing.T) {
	ft := newFakeTarget()
	r := New(ft, Config{})
	d, _ := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}}).Normalize(0)
	r.SetDesired(0, d)
	r.Reconcile(0)

	d2, _ := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"},
		MeterBytesPerSec: 5e5}).Normalize(1)
	r.SetDesired(0, d2)
	r.Reconcile(0)

	if !r.Converged() {
		t.Fatalf("not converged: %+v", r.Statuses())
	}
	if got := ft.meters[mustVIP(t, "10.0.0.1:80")]; got != 5e5 {
		t.Errorf("meter = %v, want 5e5", got)
	}
	want := []string{"add 10.0.0.1:80/tcp", "remove 10.0.0.1:80/tcp", "add 10.0.0.1:80/tcp"}
	if fmt.Sprint(ft.calls) != fmt.Sprint(want) {
		t.Errorf("calls %v, want %v", ft.calls, want)
	}
}

// TestDetectDrift wipes the fake behind the reconciler's back and checks
// the drift scan re-installs the spec.
func TestDetectDrift(t *testing.T) {
	ft := newFakeTarget()
	r := New(ft, Config{})
	d, _ := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080"}}).Normalize(0)
	r.SetDesired(0, d)
	r.Reconcile(0)

	// Out-of-band wipe plus an undesired stray VIP.
	vip := mustVIP(t, "10.0.0.1:80")
	delete(ft.pools, vip)
	stray := mustVIP(t, "10.9.9.9:99")
	ft.pools[stray] = []dataplane.DIP{dip("9.9.9.9:9")}

	if n := r.DetectDrift(simtime.Time(simtime.Second)); n != 2 {
		t.Fatalf("DetectDrift = %d, want 2", n)
	}
	r.Reconcile(simtime.Time(simtime.Second))
	if !r.Converged() {
		t.Fatalf("not converged after drift repair: %+v", r.Statuses())
	}
	if _, ok := ft.pools[vip]; !ok {
		t.Error("desired VIP not re-installed")
	}
	if _, ok := ft.pools[stray]; ok {
		t.Error("stray VIP not removed")
	}
}

func TestWorkqueueBound(t *testing.T) {
	q := newWorkqueue(2)
	v := func(i int) dataplane.VIP {
		return dataplane.VIP{Addr: netip.MustParseAddr(fmt.Sprintf("10.0.0.%d", i)), Port: 80}
	}
	if !q.Add(v(1), 0) || !q.Add(v(2), 0) {
		t.Fatal("adds under bound rejected")
	}
	if q.Add(v(3), 0) {
		t.Fatal("add over bound accepted")
	}
	if q.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", q.dropped)
	}
	// Re-adding a queued key is not a drop.
	if !q.Add(v(1), 5) {
		t.Fatal("re-add of queued key rejected")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
}

func TestImperativeEditsShareEngine(t *testing.T) {
	ft := newFakeTarget()
	r := New(ft, Config{})
	vip := mustVIP(t, "10.0.0.1:80")
	a, b := dip("1.1.1.1:8080"), dip("1.1.1.2:8080")

	if err := r.EditAdd(0, vip, []dataplane.DIP{a}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.EditAdd(0, vip, []dataplane.DIP{a}, 0); !errors.Is(err, dataplane.ErrVIPExists) {
		t.Fatalf("duplicate add: %v, want ErrVIPExists", err)
	}
	if err := r.EditPool(0, vip, func(pool []dataplane.DIP) ([]dataplane.DIP, error) {
		return append(pool, b), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !SamePool(ft.pools[vip], []dataplane.DIP{a, b}) {
		t.Fatalf("pool = %v, want [a b]", ft.pools[vip])
	}
	// A failing edit reverts desired state: the pool diff stays clean.
	ft.failNext["update"] = 1
	err := r.EditPool(0, vip, func(pool []dataplane.DIP) ([]dataplane.DIP, error) {
		return pool[:1], nil
	})
	if !errors.Is(err, cuckoo.ErrTableFull) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if want := r.Desired().VIPs[vip].Pool; !SamePool(want, []dataplane.DIP{a, b}) {
		t.Fatalf("desired not reverted: %v", want)
	}
	if err := r.EditRemove(0, vip); err != nil {
		t.Fatal(err)
	}
	if err := r.EditRemove(0, vip); !errors.Is(err, dataplane.ErrUnknownVIP) {
		t.Fatalf("double remove: %v, want ErrUnknownVIP", err)
	}
	if r.Converged() == false {
		t.Fatalf("not converged after edits: %+v", r.Statuses())
	}
}

// --- fleet ---------------------------------------------------------------

type fakeFleet struct{ targets []*fakeTarget }

// all is the fleet as NewCluster takes it.
func (f fakeFleet) all() []Target {
	ts := make([]Target, len(f.targets))
	for i, t := range f.targets {
		ts[i] = t
	}
	return ts
}

func newFakeFleet(n int) fakeFleet {
	f := fakeFleet{}
	for i := 0; i < n; i++ {
		f.targets = append(f.targets, newFakeTarget())
	}
	return f
}

// testFleet is a rollout over a fake fleet whose current instant the test
// moves by hand.
type testFleet struct {
	fakeFleet
	c   *ClusterReconciler
	now simtime.Time
}

func newTestFleet(n int, cfg FleetConfig) *testFleet {
	f := &testFleet{fakeFleet: newFakeFleet(n)}
	f.c = NewCluster(f.all(), func() simtime.Time { return f.now }, cfg)
	return f
}

// step moves the clock to the rollout's next deadline (never back) and
// advances the rollout there. It reports false when nothing is scheduled.
func (f *testFleet) step() bool {
	due, ok := f.c.NextEventTime()
	if ok {
		f.now = max(f.now, due)
		f.c.Advance(f.now)
	}
	return ok
}

// drive steps the rollout until it converges or the step budget runs out.
func (f *testFleet) drive(t *testing.T, steps int) {
	t.Helper()
	for i := 0; i < steps && !f.c.Converged(); i++ {
		if !f.step() {
			break
		}
	}
	if !f.c.Converged() {
		t.Fatalf("fleet not converged after %d steps: %+v", steps, f.c.Statuses())
	}
}

// TestFleetRollingUpdate checks a two-generation rollout converges member
// by member and that the second apply of the same content is a no-op.
func TestFleetRollingUpdate(t *testing.T) {
	f := newTestFleet(3, FleetConfig{})
	c := f.c

	specV1 := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080", "1.1.1.2:8080"}})
	if err := c.SetSpec(0, specV1); err != nil {
		t.Fatal(err)
	}
	f.drive(t, 100)
	for i, ft := range f.targets {
		if !SamePool(ft.pools[mustVIP(t, "10.0.0.1:80")],
			[]dataplane.DIP{dip("1.1.1.1:8080"), dip("1.1.1.2:8080")}) {
			t.Fatalf("member %d pool wrong: %v", i, ft.pools)
		}
	}

	// Generation 2: rolling pool change.
	specV2 := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"1.1.1.1:8080", "1.1.1.3:8080"}})
	if err := c.SetSpec(f.now, specV2); err != nil {
		t.Fatal(err)
	}
	f.drive(t, 100)
	for i, ft := range f.targets {
		if !SamePool(ft.pools[mustVIP(t, "10.0.0.1:80")],
			[]dataplane.DIP{dip("1.1.1.1:8080"), dip("1.1.1.3:8080")}) {
			t.Fatalf("member %d pool not rolled: %v", i, ft.pools)
		}
	}
	for _, st := range c.Statuses() {
		if st.Condition != CondApplied || st.ObservedGeneration != 2 {
			t.Errorf("fleet status %+v, want Applied@2", st)
		}
	}
	if at, ok := c.NextEventTime(); ok {
		t.Fatalf("converged rollout still due at %v", at)
	}

	// Idempotency: re-submitting generation 2 with identical content is
	// accepted as a no-op and writes nothing.
	var writes uint64
	for i := range f.targets {
		writes += c.Member(i).Writes()
	}
	specV2b := specV2.Clone()
	specV2b.Generation = 2
	if err := c.SetSpec(f.now, specV2b); err != nil {
		t.Fatalf("idempotent re-apply rejected: %v", err)
	}
	c.Advance(f.now)
	var writes2 uint64
	for i := range f.targets {
		writes2 += c.Member(i).Writes()
	}
	if writes2 != writes {
		t.Fatalf("idempotent re-apply wrote: %d -> %d", writes, writes2)
	}
	// Same generation, different content: rejected.
	specV2c := specOf(VIPSpec{VIP: "10.0.0.1:80", Pool: []string{"9.9.9.9:9:"}})
	specV2c.Generation = 2
	if err := c.SetSpec(f.now, specV2c); err == nil {
		t.Fatal("conflicting re-apply of same generation accepted")
	}
}

// TestFleetDrainGate checks member i+1 is not touched until member i has
// drained its pending work, and that the drained gate is level-triggered:
// the rollout has no deadline while it waits, and is due at the fleet's
// current instant once the gate opens.
func TestFleetDrainGate(t *testing.T) {
	f := newTestFleet(2, FleetConfig{})
	f.targets[0].pending = 3 // member 0 busy absorbing inserts

	if err := f.c.SetSpec(0, specOf(VIPSpec{VIP: "10.0.0.1:80",
		Pool: []string{"1.1.1.1:8080"}})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.now = simtime.Time(i) * simtime.Time(simtime.Millisecond)
		f.c.Advance(f.now)
	}
	if len(f.targets[1].calls) != 0 {
		t.Fatalf("member 1 touched before member 0 drained: %v", f.targets[1].calls)
	}
	if at, ok := f.c.NextEventTime(); ok {
		t.Fatalf("rollout due at %v while the drain gate is shut", at)
	}
	f.targets[0].pending = 0
	f.now = simtime.Time(20 * simtime.Millisecond)
	if at, ok := f.c.NextEventTime(); !ok || at != f.now {
		t.Fatalf("open drain gate: due at %v (%v), want the current instant %v", at, ok, f.now)
	}
	f.drive(t, 100)
	if len(f.targets[1].calls) == 0 {
		t.Fatal("member 1 never updated after drain")
	}
}

// TestFleetRolloutGate checks a firing fleet alert (the SLO engine's
// page-severity signal) holds an in-flight rollout: no member receives the
// new generation while the gate pauses, statuses report the hold, and the
// rollout completes once the gate clears.
func TestFleetRolloutGate(t *testing.T) {
	f := newTestFleet(3, FleetConfig{})
	c := f.c
	paused := false
	c.SetRolloutGate(func() bool { return paused })

	if err := c.SetSpec(0, specOf(VIPSpec{VIP: "10.0.0.1:80",
		Pool: []string{"1.1.1.1:8080"}})); err != nil {
		t.Fatal(err)
	}
	f.drive(t, 100)
	if c.RolloutPaused() {
		t.Fatal("RolloutPaused true with no gate trip")
	}

	paused = true
	if err := c.SetSpec(f.now, specOf(VIPSpec{VIP: "10.0.0.1:80",
		Pool: []string{"1.1.1.1:8080", "1.1.1.2:8080"}})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.now = f.now.Add(simtime.Millisecond)
		c.Advance(f.now)
		if c.Converged() {
			t.Fatal("fleet converged through a closed gate")
		}
	}
	if !c.RolloutPaused() {
		t.Fatal("RolloutPaused false while gate trips mid-rollout")
	}
	for i := range f.targets {
		if g := c.Member(i).Generation(); g >= 2 {
			t.Fatalf("member %d received generation %d through a closed gate", i, g)
		}
	}
	for _, st := range c.Statuses() {
		if st.Condition != CondDegraded || st.Reason != "RolloutPaused" {
			t.Fatalf("paused status %+v, want Degraded/RolloutPaused", st)
		}
	}

	paused = false
	f.drive(t, 100)
	if c.RolloutPaused() {
		t.Fatal("RolloutPaused true after gate cleared and rollout finished")
	}
	for _, st := range c.Statuses() {
		if st.Condition != CondApplied || st.ObservedGeneration != 2 {
			t.Errorf("fleet status %+v, want Applied@2", st)
		}
	}
}

// TestFleetRollback rejects the rollout on member 1 (retry budget
// exhausted), checks member 0 is rolled back to the previous generation,
// and converges once the fault clears.
func TestFleetRollback(t *testing.T) {
	f := newTestFleet(3, FleetConfig{Config: Config{
		BaseBackoff: simtime.Millisecond, MaxBackoff: simtime.Millisecond, MaxRetries: 1,
	}, RolloutBackoff: simtime.Millisecond})
	c := f.c

	// Generation 1 lands everywhere.
	if err := c.SetSpec(0, specOf(VIPSpec{VIP: "10.0.0.1:80",
		Pool: []string{"1.1.1.1:8080"}})); err != nil {
		t.Fatal(err)
	}
	f.drive(t, 100)

	// Generation 2: member 1 rejects updates until the fault clears.
	f.targets[1].failNext["update"] = 4
	if err := c.SetSpec(f.now, specOf(VIPSpec{VIP: "10.0.0.1:80",
		Pool: []string{"1.1.1.1:8080", "1.1.1.2:8080"}})); err != nil {
		t.Fatal(err)
	}
	v1Pool := []dataplane.DIP{dip("1.1.1.1:8080")}
	sawRollback := false
	for i := 0; i < 200 && !sawRollback && f.step(); i++ {
		// After a rollback, member 0 must be back at the v1 pool while the
		// fleet waits out the rollout backoff.
		if !c.Converged() && SamePool(f.targets[0].pools[mustVIP(t, "10.0.0.1:80")], v1Pool) &&
			len(f.targets[0].calls) > 2 {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Fatal("member 0 never rolled back to the previous generation")
	}

	// Fault injection exhausts; the retried rollout converges fleet-wide.
	f.drive(t, 200)
	for i, ft := range f.targets {
		if !SamePool(ft.pools[mustVIP(t, "10.0.0.1:80")],
			[]dataplane.DIP{dip("1.1.1.1:8080"), dip("1.1.1.2:8080")}) {
			t.Fatalf("member %d not at generation 2 after retry: %v", i, ft.pools)
		}
	}
	if c.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", c.Generation())
	}
}
