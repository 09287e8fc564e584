package cuckoo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func testConfig(buckets int) Config {
	return Config{
		Stages:          4,
		BucketsPerStage: buckets,
		Ways:            4,
		DigestBits:      16,
		ValueBits:       6,
		OverheadBits:    6,
		WordBits:        112,
		Seed:            42,
	}
}

func digestOf(key uint64) uint32 {
	return uint32(hashing.HashUint64(0xd16e57, key) >> 48)
}

func TestInsertLookup(t *testing.T) {
	tab := New(testConfig(64))
	key := uint64(0xabcdef)
	if _, err := tab.Insert(key, digestOf(key), 5); err != nil {
		t.Fatal(err)
	}
	v, h, ok := tab.Lookup(key, digestOf(key))
	if !ok || v != 5 {
		t.Fatalf("Lookup = (%d,%v)", v, ok)
	}
	kh, err := tab.EntryKeyHash(h)
	if err != nil || kh != key {
		t.Fatalf("EntryKeyHash = %x, %v", kh, err)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	tab := New(testConfig(64))
	if _, err := tab.Insert(1, digestOf(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(1, digestOf(1), 1); err != ErrDuplicate {
		t.Fatalf("duplicate insert: err = %v, want ErrDuplicate", err)
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	tab := New(testConfig(64))
	tab.Insert(7, digestOf(7), 1)
	if err := tab.UpdateValue(7, 3); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tab.Lookup(7, digestOf(7)); v != 3 {
		t.Fatalf("after update v=%d", v)
	}
	if !tab.Delete(7) {
		t.Fatal("Delete returned false")
	}
	if tab.Delete(7) {
		t.Fatal("double delete returned true")
	}
	if _, _, ok := tab.Lookup(7, digestOf(7)); ok {
		t.Fatal("deleted entry still found")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if err := tab.UpdateValue(7, 1); err != ErrNotFound {
		t.Fatalf("UpdateValue on missing = %v", err)
	}
}

// TestHighOccupancy verifies the cuckoo BFS sustains the packing ratio the
// paper relies on: a 4-stage x 4-way table should fill well past 90%.
func TestHighOccupancy(t *testing.T) {
	tab := New(testConfig(256)) // capacity 4096
	rng := rand.New(rand.NewSource(8))
	inserted := []uint64{}
	for {
		key := rng.Uint64()
		if _, err := tab.Insert(key, digestOf(key), uint32(len(inserted)%64)); err != nil {
			break
		}
		inserted = append(inserted, key)
	}
	if occ := tab.Occupancy(); occ < 0.90 {
		t.Fatalf("occupancy at first failure = %.3f, want >= 0.90", occ)
	}
	// Every inserted key must still resolve to its own entry with the right
	// value (moves must never lose or corrupt entries).
	for i, key := range inserted {
		v, h, ok := tab.Lookup(key, digestOf(key))
		if !ok {
			t.Fatalf("key %d lost after %d inserts", i, len(inserted))
		}
		kh, _ := tab.EntryKeyHash(h)
		if kh != key {
			t.Fatalf("key %d lookup resolved to an alias", i)
		}
		if v != uint32(i%64) {
			t.Fatalf("key %d value = %d, want %d", i, v, i%64)
		}
	}
}

// TestAliasResolution forces two keys with identical digests into the same
// stage-0 bucket and verifies the post-insert relocation separates them
// (the paper's SYN-collision fix).
func TestAliasResolution(t *testing.T) {
	tab := New(testConfig(8))
	// Find two keys that collide in stage 0 and share a digest.
	rng := rand.New(rand.NewSource(9))
	k1 := rng.Uint64()
	d := digestOf(k1)
	var k2 uint64
	for {
		k2 = rng.Uint64()
		if k2 != k1 && tab.bucketIndex(0, k2) == tab.bucketIndex(0, k1) {
			break
		}
	}
	if _, err := tab.Insert(k1, d, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(k2, d, 2); err != nil { // same digest on purpose
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  uint64
		want uint32
	}{{k1, 1}, {k2, 2}} {
		v, h, ok := tab.Lookup(tc.key, d)
		if !ok || v != tc.want {
			t.Fatalf("key %x -> (%d,%v), want %d", tc.key, v, ok, tc.want)
		}
		kh, _ := tab.EntryKeyHash(h)
		if kh != tc.key {
			t.Fatalf("key %x still aliased", tc.key)
		}
	}
	if tab.AliasesFixed == 0 {
		t.Fatal("expected at least one alias fix")
	}
}

// TestFalsePositiveSemantics: a key never inserted can falsely hit when it
// shares a bucket and digest with a stored entry — hardware semantics the
// dataplane's SYN redirect path depends on detecting.
func TestFalsePositiveSemantics(t *testing.T) {
	tab := New(testConfig(4))
	k1 := uint64(111)
	tab.Insert(k1, digestOf(k1), 9)
	// Search for a foreign key aliasing k1 in any stage.
	var foreign uint64
	found := false
	for c := uint64(0); c < 2_000_00 && !found; c++ {
		cand := c*2654435761 + 17
		if cand == k1 {
			continue
		}
		for s := 0; s < 4; s++ {
			if tab.bucketIndex(s, cand) == tab.bucketIndex(s, k1) {
				foreign = cand
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no aliasing candidate found (tiny table should make this immediate)")
	}
	v, h, ok := tab.Lookup(foreign, digestOf(k1))
	if !ok || v != 9 {
		t.Fatalf("expected false-positive hit, got (%d,%v)", v, ok)
	}
	kh, _ := tab.EntryKeyHash(h)
	if kh == foreign {
		t.Fatal("shadow key should reveal the mismatch")
	}
}

func TestRelocateExplicit(t *testing.T) {
	tab := New(testConfig(16))
	k := uint64(5)
	tab.Insert(k, digestOf(k), 1)
	_, h, _ := tab.Lookup(k, digestOf(k))
	if err := tab.Relocate(h); err != nil {
		t.Fatal(err)
	}
	v, h2, ok := tab.Lookup(k, digestOf(k))
	if !ok || v != 1 {
		t.Fatal("entry lost after relocation")
	}
	if h2.Stage == h.Stage {
		t.Fatalf("relocation stayed in stage %d", h.Stage)
	}
	if tab.Relocations != 1 {
		t.Fatalf("Relocations = %d", tab.Relocations)
	}
}

func TestRelocateErrors(t *testing.T) {
	tab := New(testConfig(4))
	if err := tab.Relocate(Handle{0, 0, 0}); err != ErrNotFound {
		t.Fatalf("relocate empty slot: %v", err)
	}
	if err := tab.Relocate(Handle{99, 0, 0}); err == nil {
		t.Fatal("bad handle accepted")
	}
}

func TestTableFull(t *testing.T) {
	cfg := testConfig(1) // capacity 16
	cfg.MaxBFSNodes = 64
	tab := New(cfg)
	rng := rand.New(rand.NewSource(10))
	var err error
	for i := 0; i < 1000; i++ {
		key := rng.Uint64()
		if _, err = tab.Insert(key, digestOf(key), 0); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("insert into full table never failed")
	}
	if tab.FailedInserts == 0 {
		t.Fatal("FailedInserts not counted")
	}
}

func TestSRAMAccounting(t *testing.T) {
	tab := New(testConfig(256))
	// 4 stages x 256 words x 112 bits = 14336 bytes.
	if got := tab.SRAMBytes(); got != 4*256*112/8 {
		t.Fatalf("SRAMBytes = %d", got)
	}
	if got := tab.EntryBits(); got != 28 {
		t.Fatalf("EntryBits = %d, want 28 (16+6+6)", got)
	}
	if tab.Capacity() != 4*256*4 {
		t.Fatalf("Capacity = %d", tab.Capacity())
	}
}

func TestIterate(t *testing.T) {
	tab := New(testConfig(64))
	keys := map[uint64]uint32{1: 1, 2: 2, 3: 3}
	for k, v := range keys {
		tab.Insert(k, digestOf(k), v)
	}
	seen := map[uint64]uint32{}
	tab.Iterate(func(kh uint64, d uint32, v uint32) bool {
		seen[kh] = v
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("Iterate saw %d entries", len(seen))
	}
	for k, v := range keys {
		if seen[k] != v {
			t.Fatalf("Iterate: key %d value %d, want %d", k, seen[k], v)
		}
	}
	// Early termination.
	n := 0
	tab.Iterate(func(uint64, uint32, uint32) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Iterate visited %d", n)
	}
}

func TestDefaultConfigSizing(t *testing.T) {
	cfg := DefaultConfig(10_000_000)
	tab := New(cfg)
	if tab.Capacity() < 10_000_000 {
		t.Fatalf("capacity %d cannot hold 10M entries", tab.Capacity())
	}
	// Paper: 10M IPv6 connections fit in tens of MB with 28-bit entries.
	if mb := float64(tab.SRAMBytes()) / (1 << 20); mb > 64 {
		t.Fatalf("10M-entry ConnTable = %.1f MB, want < 64 MB", mb)
	}
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Stages: 0, BucketsPerStage: 1, Ways: 1, DigestBits: 16},
		{Stages: 1, BucketsPerStage: 1, Ways: 1, DigestBits: 0},
		{Stages: 1, BucketsPerStage: 1, Ways: 1, DigestBits: 32},
		{Stages: 1, BucketsPerStage: 1, Ways: 1, DigestBits: 16, ValueBits: -1},
		{Stages: 1, BucketsPerStage: 1, Ways: 1, DigestBits: 16, ValueBits: 16}, // 33 bits with the occupied bit
		{Stages: 1, BucketsPerStage: 1, Ways: 1, DigestBits: 24, ValueBits: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: insert/delete round trip preserves lookup behaviour for
// arbitrary key sets that fit comfortably in the table.
func TestInsertDeleteProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		if len(keys) > 200 {
			keys = keys[:200]
		}
		tab := New(testConfig(64))
		uniq := map[uint64]bool{}
		for _, k := range keys {
			if uniq[k] {
				continue
			}
			uniq[k] = true
			if _, err := tab.Insert(k, digestOf(k), uint32(k%64)); err != nil {
				return false
			}
		}
		for k := range uniq {
			v, _, ok := tab.Lookup(k, digestOf(k))
			if !ok || v != uint32(k%64) {
				return false
			}
			if !tab.Delete(k) {
				return false
			}
		}
		return tab.Len() == 0
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tab := New(testConfig(4096))
	rng := rand.New(rand.NewSource(12))
	keys := make([]uint64, 40000)
	for i := range keys {
		keys[i] = rng.Uint64()
		tab.Insert(keys[i], digestOf(keys[i]), uint32(i%64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		tab.Lookup(k, digestOf(k))
	}
}

func BenchmarkInsertAt80Percent(b *testing.B) {
	cfg := testConfig(16384) // capacity 262144
	tab := New(cfg)
	rng := rand.New(rand.NewSource(13))
	target := tab.Capacity() * 8 / 10
	for tab.Len() < target {
		k := rng.Uint64()
		tab.Insert(k, digestOf(k), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Uint64()
		if _, err := tab.Insert(k, digestOf(k), 0); err == nil {
			tab.Delete(k)
		}
	}
}

func TestOccupancyLimit(t *testing.T) {
	tab := New(testConfig(64))
	if got := tab.EffectiveCapacity(); got != tab.Capacity() {
		t.Fatalf("unlimited EffectiveCapacity = %d, want %d", got, tab.Capacity())
	}
	for i := uint64(1); i <= 4; i++ {
		if _, err := tab.Insert(i, uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	tab.SetOccupancyLimit(4)
	if got := tab.EffectiveCapacity(); got != 4 {
		t.Fatalf("EffectiveCapacity = %d, want 4", got)
	}
	failedBefore := tab.FailedInserts
	if _, err := tab.Insert(99, 99, 0); err != ErrTableFull {
		t.Fatalf("insert at limit: %v, want ErrTableFull", err)
	}
	if tab.FailedInserts != failedBefore+1 {
		t.Fatal("FailedInserts not counted for limit rejection")
	}
	// Duplicates are still detected ahead of the limit check.
	if _, err := tab.Insert(1, 1, 0); err != ErrDuplicate {
		t.Fatalf("duplicate at limit: %v, want ErrDuplicate", err)
	}
	// Deleting below the limit reopens the table.
	if !tab.Delete(1) {
		t.Fatal("Delete failed")
	}
	if _, err := tab.Insert(99, 99, 0); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	// Lifting the limit restores full capacity; a limit beyond capacity is
	// inert.
	tab.SetOccupancyLimit(0)
	if got := tab.EffectiveCapacity(); got != tab.Capacity() {
		t.Fatalf("lifted EffectiveCapacity = %d", got)
	}
	tab.SetOccupancyLimit(tab.Capacity() * 2)
	if got := tab.EffectiveCapacity(); got != tab.Capacity() {
		t.Fatalf("oversized limit EffectiveCapacity = %d", got)
	}
}
