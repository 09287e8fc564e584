package cuckoo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/hashing"
)

// scriptEntry is what the script's oracle knows about one installed key.
type scriptEntry struct {
	digest, value, rec uint32
}

// storeScript replays a seeded churn of inserts, deletes, relocations and
// value updates over a small table with narrow, mixed-width digests: the
// load ramps to 0.9 and hovers there, with one push to a full table on the
// way, so displacement chains, post-insert alias relocations and searches
// that end at the MaxBFSNodes cut-off all occur. It keeps an exact oracle
// of what must be installed and a running hash of every operation's outcome
// (moves and error), so a layout change that alters one decision is caught
// where it happens and not only in the final placement.
type storeScript struct {
	tab      *Table
	rng      *rand.Rand
	live     []uint64 // installed keys, in script order
	at       map[uint64]int
	model    map[uint64]scriptEntry
	nextRec  uint32
	byRec    []uint64 // the key each record was drawn for, by record
	outcomes hash.Hash64
}

const (
	scriptOps  = 200_000
	scriptLoad = 0.9
)

func scriptConfig() Config {
	return Config{
		Stages:             4,
		BucketsPerStage:    256,
		Ways:               4,
		DigestBits:         12,
		DigestBitsPerStage: []int{12, 12, 10, 10},
		ValueBits:          6,
		OverheadBits:       6,
		WordBits:           112,
		Seed:               0x5eed,
		MaxBFSNodes:        512,
	}
}

func scriptDigest(key uint64) uint32 {
	return uint32(hashing.HashUint64(0xd16e57, key) >> 52)
}

func newStoreScript() *storeScript {
	return &storeScript{
		tab:      New(scriptConfig()),
		rng:      rand.New(rand.NewSource(19)),
		at:       map[uint64]int{},
		model:    map[uint64]scriptEntry{},
		nextRec:  1,
		byRec:    []uint64{0},
		outcomes: fnv.New64a(),
	}
}

// newRecordHashedScript is newStoreScript over a table whose software half is
// the record index alone: the script's own slice tells a record's key.
func newRecordHashedScript() *storeScript {
	s := newStoreScript()
	s.tab.SetRecordHasher(func(rec uint32) uint64 { return s.byRec[rec] })
	return s
}

func errCode(err error) byte {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrUnresolved): // may wrap ErrTableFull
		return 2
	case errors.Is(err, ErrTableFull):
		return 1
	case errors.Is(err, ErrDuplicate):
		return 3
	case errors.Is(err, ErrNotFound):
		return 4
	}
	return 9
}

func (s *storeScript) note(op byte, moves int, err error) {
	var b [6]byte
	b[0], b[1] = op, errCode(err)
	binary.LittleEndian.PutUint32(b[2:], uint32(moves))
	s.outcomes.Write(b[:])
}

func (s *storeScript) pick() uint64 { return s.live[s.rng.Intn(len(s.live))] }

func (s *storeScript) insert() uint64 {
	k := s.rng.Uint64()
	e := scriptEntry{digest: scriptDigest(k), value: uint32(s.rng.Intn(64)), rec: s.nextRec}
	s.nextRec++
	s.byRec = append(s.byRec, k)
	moves, err := s.tab.InsertRecord(k, e.digest, e.value, e.rec)
	s.note('i', moves, err)
	// An insert that placed its entry but could not separate it from an
	// alias reports ErrUnresolved with the entry left installed.
	if err == nil || errors.Is(err, ErrUnresolved) {
		s.at[k] = len(s.live)
		s.live = append(s.live, k)
		s.model[k] = e
	}
	return k
}

func (s *storeScript) delete() uint64 {
	k := s.pick()
	if !s.tab.Delete(k) {
		panic("script: live key not deletable")
	}
	s.note('d', 0, nil)
	i, last := s.at[k], len(s.live)-1
	s.live[i] = s.live[last]
	s.at[s.live[i]] = i
	s.live = s.live[:last]
	delete(s.at, k)
	delete(s.model, k)
	return k
}

// relocate moves whatever entry a hardware lookup of a live key resolves
// to — the key's own or an alias shadowing it, as the SYN-redirect handler
// would.
func (s *storeScript) relocate() uint64 {
	k := s.pick()
	_, h, ok := s.tab.Lookup(k, s.model[k].digest)
	if !ok {
		panic("script: live key misses")
	}
	s.note('r', 0, s.tab.Relocate(h))
	return k
}

// UpdateValue rewrites the action data of the entry for keyHash.
func (t *Table) UpdateValue(keyHash uint64, value uint32) error {
	if value > t.maxValue {
		return ErrValueWidth
	}
	p, ok := t.find(keyHash, anyDigest)
	if !ok {
		return ErrNotFound
	}
	t.words[p] = t.entryWord(t.wordDigest(t.words[p]), value)
	return nil
}

func (s *storeScript) update() uint64 {
	k := s.pick()
	e := s.model[k]
	e.value = uint32(s.rng.Intn(64))
	s.note('u', 0, s.tab.UpdateValue(k, e.value))
	s.model[k] = e
	return k
}

// step runs one operation and returns the key it worked on.
func (s *storeScript) step(op int) uint64 {
	frac := 0.3 + 0.6*float64(op)/60_000
	if frac > scriptLoad {
		frac = scriptLoad
	}
	if op >= scriptOps/2 && op < scriptOps/2+4000 {
		frac = 1 // fill until searches fail
	}
	goal := int(frac * float64(s.tab.Capacity()))
	r := s.rng.Intn(100)
	switch {
	case len(s.live) == 0:
		return s.insert()
	case r < 3:
		return s.relocate()
	case r < 13:
		return s.update()
	case s.tab.Len() < goal && r < 87, s.tab.Len() >= goal && r < 52:
		return s.insert()
	}
	return s.delete()
}

// settle ends the script at exactly scriptLoad.
func (s *storeScript) settle() {
	goal := int(scriptLoad * float64(s.tab.Capacity()))
	for s.tab.Len() < goal {
		s.insert()
	}
	for s.tab.Len() > goal {
		s.delete()
	}
}

// placement hashes the table's physical contents in (stage, bucket, way)
// order: where every entry sits and what it holds.
func placement(tab *Table) string {
	h := sha256.New()
	var b [28]byte
	for _, e := range tab.Entries() {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.Stage))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.Bucket))
		binary.LittleEndian.PutUint32(b[8:], uint32(e.Way))
		binary.LittleEndian.PutUint64(b[12:], e.KeyHash)
		binary.LittleEndian.PutUint32(b[20:], e.Digest)
		binary.LittleEndian.PutUint32(b[24:], e.Value)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementGolden pins the table's placement decisions to what the
// array-of-structs layout (one 24-byte slot per entry, before the packed
// words) produced for the same script: same hash family and bucket index,
// same stage preference, same BFS visiting order and cut-off, same alias
// relocation order. Which digest false positives occur downstream depends on
// where entries sit, so a layout change must reproduce this byte for byte.
func TestPlacementGolden(t *testing.T) {
	s := newStoreScript()
	for op := 0; op < scriptOps; op++ {
		s.step(op)
	}
	s.settle()
	type summary struct {
		len, moves, relocations, aliasesFixed, failed int
		outcomes                                      uint64
		placement                                     string
	}
	tab := s.tab
	got := summary{tab.Len(), tab.TotalMoves, tab.Relocations, tab.AliasesFixed, tab.FailedInserts,
		s.outcomes.Sum64(), placement(tab)}
	// Captured from the 24-byte-slot layout at the commit before the split.
	want := summary{3686, 15936, 4297, 119, 2001, 11201797428148755266,
		"30cf0eb4f0e8d171ebf643f3c968744818ce2e47cf0fcd71685d5bae6eedf1d1"}
	if got != want {
		t.Fatalf("placement diverged from the golden:\n got %+v\nwant %+v", got, want)
	}
}

// checkKey compares the table's view of k with the oracle's: the exact probe
// finds it with value, full-width digest and record index intact — wherever
// the moves since put it — or, for a key the script removed or failed to
// insert, does not find it. The hardware lookup always hits for a live key,
// on the key's own entry or on a legitimate alias shadowing it.
func (s *storeScript) checkKey(t *testing.T, k uint64) {
	t.Helper()
	tab := s.tab
	want, live := s.model[k]
	e, ok := tab.Find(k)
	if ok != live {
		t.Fatalf("key %x: Find = %v, oracle says live = %v", k, ok, live)
	}
	if !live {
		return
	}
	if e.KeyHash != k || e.Digest != want.digest || e.Value != want.value || e.Record != want.rec {
		t.Fatalf("key %x: entry %+v, oracle %+v", k, e, want)
	}
	if at, err := tab.EntryAt(e.Handle()); err != nil || at != e {
		t.Fatalf("key %x: EntryAt(%+v) = %+v, %v; Find said %+v", k, e.Handle(), at, err, e)
	}
	v, h, ok := tab.Lookup(k, want.digest)
	if !ok {
		t.Fatalf("key %x: hardware lookup misses a live key", k)
	}
	if h == e.Handle() {
		if v != want.value {
			t.Fatalf("key %x: lookup value %d, want %d", k, v, want.value)
		}
		return
	}
	// An alias: another key's entry, in k's bucket of an earlier stage, whose
	// digest matches at that stage's width.
	alias, err := tab.EntryAt(h)
	shift := uint(tab.cfg.DigestBits - tab.stageBits[h.Stage])
	if err != nil || alias.KeyHash == k || h.Stage > e.Stage || h.Bucket != tab.bucketIndex(h.Stage, k) ||
		alias.Digest>>shift != want.digest>>shift || alias.Value != v {
		t.Fatalf("key %x at %+v: lookup hit %+v (%v), not a legitimate alias", k, e, alias, err)
	}
}

// checkAll sweeps the whole table against the oracle.
func (s *storeScript) checkAll(t *testing.T) {
	t.Helper()
	tab := s.tab
	if tab.Len() != len(s.model) {
		t.Fatalf("Len = %d, oracle holds %d", tab.Len(), len(s.model))
	}
	seen := 0
	tab.Walk(func(e Entry) bool {
		seen++
		if want, ok := s.model[e.KeyHash]; !ok || e.Digest != want.digest || e.Value != want.value || e.Record != want.rec {
			t.Fatalf("installed entry %+v, oracle %+v (live %v)", e, want, ok)
		}
		return true
	})
	if seen != len(s.model) {
		t.Fatalf("Walk showed %d entries, oracle holds %d", seen, len(s.model))
	}
	for p, w := range tab.words {
		if !occupied(w) && (w != 0 || tab.keys != nil && tab.keys[p] != 0 || tab.recs[p] != 0) {
			t.Fatalf("free position %d keeps word %x key %x record %d", p, w, tab.keyHashAt(p), tab.recs[p])
		}
	}
	for i, bits := range tab.visited {
		if bits != 0 {
			t.Fatalf("search left visited bits %x in word %d", bits, i)
		}
	}
	for _, k := range s.live {
		s.checkKey(t, k)
	}
}

// TestStoreDifferential replays the placement script against the oracle:
// after every operation the key it touched, and every 10 000 operations the
// whole table, must read back exactly — both halves of every entry moved
// together through each displacement chain and relocation.
func TestStoreDifferential(t *testing.T) {
	s := newStoreScript()
	for op := 0; op < scriptOps; op++ {
		s.checkKey(t, s.step(op))
		if op%10_000 == 0 {
			s.checkAll(t)
		}
	}
	s.settle()
	s.checkAll(t)
	if s.tab.TotalMoves == 0 || s.tab.AliasesFixed == 0 || s.tab.FailedInserts == 0 {
		t.Fatalf("script exercised no displacement (%d), alias fix (%d) or failed search (%d)",
			s.tab.TotalMoves, s.tab.AliasesFixed, s.tab.FailedInserts)
	}
}

// TestRecordHashedStoreDifferential replays the placement script on a table
// that keeps no key hashes, in lockstep with one that does: every key the
// hashed table derives from a record (displacement, alias relocation, exact
// probes, Walk) is the key that record was drawn for, so it checks against
// the same oracle after every operation and ends with the same outcomes,
// counters and placement as the table TestPlacementGolden pins. checkAll also
// holds a free slot to keeping no record. The table refuses an entry without
// a record, whose key it could not tell.
func TestRecordHashedStoreDifferential(t *testing.T) {
	plain, hashed := newStoreScript(), newRecordHashedScript()
	if hashed.tab.keys != nil {
		t.Fatal("a record-hashed table still keeps key hashes")
	}
	for op := 0; op < scriptOps; op++ {
		k := hashed.step(op)
		if pk := plain.step(op); pk != k {
			t.Fatalf("op %d: the scripts diverged: key %x beside %x", op, k, pk)
		}
		hashed.checkKey(t, k)
		if op%10_000 == 0 {
			hashed.checkAll(t)
		}
	}
	plain.settle()
	hashed.settle()
	hashed.checkAll(t)
	if got, want := hashed.summary(), plain.summary(); got != want {
		t.Fatalf("record-hashed table diverged from the key-hash table:\n got %+v\nwant %+v", got, want)
	}

	k := hashed.rng.Uint64()
	n := hashed.tab.Len()
	if _, err := hashed.tab.InsertRecord(k, scriptDigest(k), 1, 0); err != ErrNoRecord {
		t.Fatalf("InsertRecord without a record: err = %v, want ErrNoRecord", err)
	}
	if _, err := hashed.tab.Insert(k, scriptDigest(k), 1); err != ErrNoRecord || hashed.tab.Len() != n {
		t.Fatalf("Insert: err = %v with %d entries, want ErrNoRecord and %d", err, hashed.tab.Len(), n)
	}
	if _, ok := hashed.tab.Find(k); ok {
		t.Fatal("a refused key is installed")
	}
}

// scriptSummary is what TestPlacementGolden pins of a finished script.
type scriptSummary struct {
	len, moves, relocations, aliasesFixed, failed int
	outcomes                                      uint64
	placement                                     string
}

func (s *storeScript) summary() scriptSummary {
	tab := s.tab
	return scriptSummary{tab.Len(), tab.TotalMoves, tab.Relocations, tab.AliasesFixed, tab.FailedInserts,
		s.outcomes.Sum64(), placement(tab)}
}

// TestEntryWordWidths: the field widths the experiments use all fit the
// 32-bit entry word and read back exactly at their extremes, with each field
// all-ones beside an all-zero neighbour; a narrower stage matches on its top
// digest bits only; and a field wider than configured is refused before it
// can land in its neighbour.
func TestEntryWordWidths(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		digestBits, valueBits int
	}{
		{"24+6", 24, 6},
		{"fig15 16+15", 16, 15},
		{"widest 24+7", 24, 7},
		{"widest 1+30", 1, 30},
	} {
		cfg := testConfig(16)
		cfg.DigestBits, cfg.ValueBits = tc.digestBits, tc.valueBits
		tab := New(cfg)
		maxDigest, maxValue := uint32(1)<<uint(tc.digestBits)-1, uint32(1)<<uint(tc.valueBits)-1
		// Key 1 holds both fields all-ones, key 2 is all-zero (still an
		// entry), keys 3 and 4 hold one field full beside an empty neighbour.
		for k, e := range []struct{ digest, value uint32 }{
			{maxDigest, maxValue}, {0, 0}, {maxDigest, 0}, {0, maxValue},
		} {
			kh := uint64(k + 1)
			if _, err := tab.InsertRecord(kh, e.digest, e.value, 0xffffffff); err != nil {
				t.Fatalf("%s: key %d: %v", tc.name, kh, err)
			}
			got, ok := tab.Find(kh)
			if v, _, hit := tab.Lookup(kh, e.digest); !ok || !hit || v != e.value ||
				got.Digest != e.digest || got.Value != e.value || got.Record != 0xffffffff {
				t.Fatalf("%s: key %d: lookup (%d,%v), entry %+v (%v)", tc.name, kh, v, hit, got, ok)
			}
			if _, _, hit := tab.Lookup(kh, e.digest^1); hit {
				t.Fatalf("%s: key %d: a digest one bit off still matches", tc.name, kh)
			}
			tab.Delete(kh)
		}
		if _, err := tab.Insert(1, maxDigest, maxValue); err != nil {
			t.Fatal(err)
		}
		if err := tab.UpdateValue(1, 0); err != nil {
			t.Fatal(err)
		}
		if e, _ := tab.Find(1); e.Value != 0 || e.Digest != maxDigest {
			t.Fatalf("%s: after UpdateValue(0): %+v", tc.name, e)
		}
		if _, err := tab.Insert(2, 0, 0); err != nil {
			t.Fatal(err)
		}
		if !tab.Delete(1) || !tab.Delete(2) || tab.Len() != 0 {
			t.Fatalf("%s: delete failed", tc.name)
		}
		if _, _, hit := tab.Lookup(2, 0); hit {
			t.Fatalf("%s: an empty word matches the zero digest", tc.name)
		}

		// One bit past either field is refused, and nothing is installed.
		if _, err := tab.Insert(5, 0, maxValue+1); err != ErrValueWidth {
			t.Fatalf("%s: %d-bit value: err = %v, want ErrValueWidth", tc.name, tc.valueBits+1, err)
		}
		if _, err := tab.Insert(5, maxDigest+1, 0); err != ErrDigestWidth {
			t.Fatalf("%s: %d-bit digest: err = %v, want ErrDigestWidth", tc.name, tc.digestBits+1, err)
		}
		tab.Insert(5, 1, 1)
		if err := tab.UpdateValue(5, maxValue+1); err != ErrValueWidth {
			t.Fatalf("%s: UpdateValue past the field: err = %v, want ErrValueWidth", tc.name, err)
		}
		if e, _ := tab.Find(5); tab.Len() != 1 || e.Digest != 1 || e.Value != 1 {
			t.Fatalf("%s: a refused write changed the table: Len %d, %+v", tc.name, tab.Len(), e)
		}
	}

	// A 16-bit stage under 24-bit digests compares the top 16 bits: the low
	// byte separates two digests in the wide stages and not in the narrow.
	tab := New(mixedConfig(16))
	for s, wantHit := range []bool{false, false, true, true} {
		k := uint64(100 + s)
		p := s*tab.perStage + tab.bucketIndex(s, k)*tab.cfg.Ways
		tab.words[p], tab.keys[p] = tab.entryWord(0xabcd12, 5), k
		if v, h, hit := tab.Lookup(k, 0xabcd34); hit != wantHit || (hit && (v != 5 || h.Stage != s)) {
			t.Fatalf("stage %d (%d digest bits): low-byte mismatch hit = %v", s, tab.stageBits[s], hit)
		}
		if _, _, hit := tab.Lookup(k, 0xabce12); hit {
			t.Fatalf("stage %d: a top-bits mismatch matches", s)
		}
		tab.clear(p)
	}
}

// TestInsertDeleteZeroAllocUnderDisplacement: at 0.9 load nearly one insert
// in five runs the BFS; with the frontier and the visited bits kept between
// inserts and the bucket positions on the stack, an insert that displaces
// allocates no more than one that does not. Nor does a record-hashed table,
// whose search derives every occupant's key from its record.
func TestInsertDeleteZeroAllocUnderDisplacement(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		t.Run(map[bool]string{false: "key-hashes", true: "record-hashed"}[hashed], func(t *testing.T) {
			tab := New(testConfig(1024))
			// Record n is the n-th key drawn; the churn reuses one record.
			byRec := []uint64{0}
			if hashed {
				tab.SetRecordHasher(func(rec uint32) uint64 { return byRec[rec] })
			}
			rng := rand.New(rand.NewSource(33))
			for tab.Len() < tab.Capacity()*9/10 {
				k := rng.Uint64()
				byRec = append(byRec, k)
				tab.InsertRecord(k, digestOf(k), 0, uint32(len(byRec)-1))
			}
			churnRec := uint32(len(byRec))
			byRec = append(byRec, 0)
			churn := func() {
				k := rng.Uint64()
				byRec[churnRec] = k
				if _, err := tab.InsertRecord(k, digestOf(k), 1, churnRec); err == nil {
					tab.Delete(k)
				}
			}
			for i := 0; i < 20_000; i++ { // warm-up: the frontier grows to the searches' depth
				churn()
			}
			before := tab.TotalMoves
			if avg := testing.AllocsPerRun(5000, churn); avg != 0 {
				t.Fatalf("insert+delete at 0.9 load allocates %.2f objects per run", avg)
			}
			if tab.TotalMoves == before {
				t.Fatal("no displacement happened in the measured runs")
			}
		})
	}
}
