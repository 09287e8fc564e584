// Package cuckoo implements the multi-stage exact-match table substrate that
// SilkRoad's ConnTable compiles to (§4.1-4.2 of the paper).
//
// A large exact-match table on a switching ASIC is instantiated across
// several physical pipeline stages. Each stage holds an array of SRAM
// words; with word packing, one 112-bit word stores four 28-bit connection
// entries (16-bit digest + 6-bit version + 6-bit overhead). Each stage uses
// an independent hash function to address its words, so an entry can live
// in any one of Stages alternative buckets — a (Stages x Ways)-way cuckoo
// table. Lookups probe all stages and take the first digest match in
// pipeline order; inserts and deletes are performed by the switch CPU,
// which runs a breadth-first search over displacement moves to make room.
//
// Because the match field is a digest rather than the full key, two
// distinct keys can alias: same bucket in some stage, same digest. The
// table exposes the paper's remedy — relocating the aliased entry to a
// different stage whose hash function separates the two keys — via
// post-insert verification (VerifyAndFix).
//
// An entry has a hardware half, the one word a lookup reads, and a software
// half only the switch CPU reads — the index of the owner's record of the
// connection — so the table is also the CPU's only index of what it
// installed. The CPU keeps the key, not the table: an owner with records
// registers a hasher from record to key hash (SetRecordHasher), and the table
// derives an occupant's key hash where it needs one. A table without records
// keeps the key hashes themselves.
package cuckoo

import (
	"errors"
	"fmt"

	"repro/internal/hashing"
)

// Config parameterizes a table.
type Config struct {
	Stages          int // physical stages the table spans
	BucketsPerStage int // SRAM words per stage
	Ways            int // entries packed into one word
	DigestBits      int // match-field width (paper: 16 or 24)
	// DigestBitsPerStage optionally assigns each stage its own digest
	// width (§7: "use different digest sizes in different stages to reduce
	// the overall false positives"). Widths must not exceed DigestBits;
	// insertion prefers wider-digest stages while they have room. Nil
	// means every stage uses DigestBits.
	DigestBitsPerStage []int
	ValueBits          int    // action-data width (paper: 6-bit version)
	OverheadBits       int    // per-entry packing overhead (paper: 6)
	WordBits           int    // SRAM word width (paper: 112)
	Seed               uint64 // hash family master seed
	MaxBFSNodes        int    // insertion search budget (0 = default 4096)
}

// DefaultConfig returns the paper's operating point sized for n entries at
// an 87.5% target occupancy: the integer stages*ways*9/10 below is 14 of a
// bucket row's 16 slots. (The placement goldens are taken at this size.)
func DefaultConfig(n int) Config {
	stages := 4
	ways := 4
	buckets := n / (stages * ways * 9 / 10)
	if buckets < 1 {
		buckets = 1
	}
	return Config{
		Stages:          stages,
		BucketsPerStage: buckets,
		Ways:            ways,
		DigestBits:      16,
		ValueBits:       6,
		OverheadBits:    6,
		WordBits:        112,
		Seed:            0x51_1c_0a_d0,
	}
}

// Handle identifies a physical entry location.
type Handle struct {
	Stage, Bucket, Way int
}

// An entry is split the way the switch splits it. The hardware half is what
// a lookup reads: one 32-bit word per entry — occupied bit, value, digest,
// each at its configured width — so a 4-way bucket is 16 contiguous bytes,
// the paper's one-SRAM-word bucket. The software half is what only the
// switch CPU reads: the index of the owner's per-connection record and, in a
// table whose owner keeps no records, the key hash (the stand-in for the
// full 5-tuple). The halves live in parallel arrays under one position,
// pos = (stage*buckets+bucket)*ways+way, and every displacement, relocation
// and delete moves or clears them together, so a record index follows its
// entry wherever the search puts it. A record-hashed slot is 8 bytes.
//
//	 31       30 ..... DigestBits+ValueBits ..... DigestBits ..... 0
//	[occupied][ unused ][          value          ][     digest     ]
//
// The value sits directly above the digest, so DigestBits + ValueBits may not
// exceed maxEntryBits and a field wider than configured is refused before it
// can land in its neighbour. The digest field holds the full DigestBits-wide
// digest in every stage; a narrower stage compares its top bits only (masks).
const (
	occupiedBit  = uint32(1) << 31
	maxEntryBits = 31
)

func (t *Table) entryWord(digest, value uint32) uint32 {
	return occupiedBit | value<<t.valueShift | digest
}

func (t *Table) wordValue(w uint32) uint32  { return (w &^ occupiedBit) >> t.valueShift }
func (t *Table) wordDigest(w uint32) uint32 { return w & t.digestMask }
func occupied(w uint32) bool                { return w&occupiedBit != 0 }

// Table is a multi-stage cuckoo hash table.
type Table struct {
	cfg Config

	words []uint32 // hardware half, by position
	recs  []uint32 // software half: record index, 0 = none
	// keys is the software half's key hash, kept only while no record hasher
	// is set; rehash derives it from the record otherwise.
	keys   []uint64
	rehash func(rec uint32) uint64

	valueShift uint   // DigestBits: the value field starts above the digest
	digestMask uint32 // low DigestBits
	maxValue   uint32 // widest value ValueBits holds

	seeds      []uint64 // per-stage hash function (hashing.Family seeds)
	masks      []uint32 // per-stage word bits a lookup compares
	buckets    uint64   // BucketsPerStage
	perStage   int      // positions per stage: BucketsPerStage*Ways
	len        int
	stageBits  []int // digest width per stage
	stageOrder []int // stages in descending digest width (insert preference)
	limit      int   // artificial entry cap (0 = none); see SetOccupancyLimit

	// Insertion-search scratch, kept between inserts: the BFS frontier and
	// a visited bit per position (every set bit belongs to a queued node,
	// which is how the search clears them again).
	queue   []bfsNode
	visited []uint64

	// metrics
	TotalMoves    int // displacement moves performed by inserts
	Relocations   int // alias-resolving relocations (digest collisions)
	FailedInserts int
	AliasesFixed  int
}

// Errors returned by Insert and relocation.
var (
	ErrTableFull   = errors.New("cuckoo: no insertion path found (table full)")
	ErrNotFound    = errors.New("cuckoo: entry not found")
	ErrUnresolved  = errors.New("cuckoo: could not resolve digest alias")
	errBadHandle   = errors.New("cuckoo: invalid handle")
	ErrDuplicate   = errors.New("cuckoo: key already present")
	ErrValueWidth  = errors.New("cuckoo: value wider than ValueBits")
	ErrDigestWidth = errors.New("cuckoo: digest wider than DigestBits")
	ErrNoRecord    = errors.New("cuckoo: entry without a record in a record-hashed table")
)

// New creates a table from cfg.
func New(cfg Config) *Table {
	if cfg.Stages <= 0 || cfg.BucketsPerStage <= 0 || cfg.Ways <= 0 {
		panic("cuckoo: stages, buckets and ways must be positive")
	}
	if err := cfg.CheckWidths(); err != nil {
		panic(err.Error())
	}
	if cfg.MaxBFSNodes == 0 {
		cfg.MaxBFSNodes = 4096
	}
	if cfg.WordBits == 0 {
		cfg.WordBits = 112
	}
	bits := make([]int, cfg.Stages)
	for s := range bits {
		bits[s] = cfg.DigestBits
	}
	if cfg.DigestBitsPerStage != nil {
		if len(cfg.DigestBitsPerStage) != cfg.Stages {
			panic("cuckoo: DigestBitsPerStage length must equal Stages")
		}
		for s, b := range cfg.DigestBitsPerStage {
			if b <= 0 || b > cfg.DigestBits {
				panic("cuckoo: per-stage digest width must be in 1..DigestBits")
			}
			bits[s] = b
		}
	}
	order := make([]int, cfg.Stages)
	for s := range order {
		order[s] = s
	}
	// Stable sort by descending width so wider-digest (lower-FP) stages
	// fill first.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && bits[order[j]] > bits[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	family := hashing.NewFamily(cfg.Stages, cfg.Seed)
	seeds := make([]uint64, cfg.Stages)
	masks := make([]uint32, cfg.Stages)
	digestMask := uint32(1)<<uint(cfg.DigestBits) - 1
	for s := range seeds {
		seeds[s] = family.Seed(s)
		// Hardware stores only the top bits[s] digest bits in stage s.
		masks[s] = occupiedBit | digestMask&^(1<<uint(cfg.DigestBits-bits[s])-1)
	}
	capacity := cfg.Stages * cfg.BucketsPerStage * cfg.Ways
	return &Table{
		cfg:        cfg,
		words:      make([]uint32, capacity),
		keys:       make([]uint64, capacity),
		recs:       make([]uint32, capacity),
		valueShift: uint(cfg.DigestBits),
		digestMask: digestMask,
		maxValue:   uint32(1)<<uint(cfg.ValueBits) - 1,
		seeds:      seeds,
		masks:      masks,
		buckets:    uint64(cfg.BucketsPerStage),
		perStage:   cfg.BucketsPerStage * cfg.Ways,
		stageBits:  bits,
		stageOrder: order,
		visited:    make([]uint64, (capacity+63)/64),
	}
}

// CheckWidths reports whether an entry of cfg's field widths fits the 32-bit
// entry word beside its occupied bit. New panics on what it refuses; a caller
// whose widths come from outside the program checks first.
func (cfg Config) CheckWidths() error {
	if cfg.DigestBits < 1 || cfg.ValueBits < 0 || cfg.DigestBits+cfg.ValueBits > maxEntryBits {
		return fmt.Errorf("cuckoo: %d digest bits + %d value bits: need at least 1 digest bit and at most %d bits in all (one entry is one 32-bit word with its occupied bit)",
			cfg.DigestBits, cfg.ValueBits, maxEntryBits)
	}
	return nil
}

// SetRecordHasher makes the owner's records the only copy of each entry's
// key: fn returns the key hash of the connection record rec stands for, and
// the table drops its key hashes, deriving an occupant's where it needs one —
// the displacement search, alias relocation, an exact probe whose digest
// matches, EntryKeyHash and Walk. From then on every entry carries a record:
// InsertRecord refuses record 0. fn must not allocate where the table's
// operations are to stay allocation-free. It panics on a table that holds
// entries.
func (t *Table) SetRecordHasher(fn func(rec uint32) uint64) {
	if t.len != 0 {
		panic("cuckoo: SetRecordHasher on a table that holds entries")
	}
	t.rehash, t.keys = fn, nil
}

// keyHashAt returns the key hash of the entry at occupied position p.
func (t *Table) keyHashAt(p int) uint64 {
	if t.keys != nil {
		return t.keys[p]
	}
	return t.rehash(t.recs[p])
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.len }

// Capacity returns the total number of entry slots.
func (t *Table) Capacity() int { return t.cfg.Stages * t.cfg.BucketsPerStage * t.cfg.Ways }

// Occupancy returns Len/Capacity.
func (t *Table) Occupancy() float64 { return float64(t.len) / float64(t.Capacity()) }

// SetOccupancyLimit caps how many entries Insert will accept: at or above
// limit, insertions fail with ErrTableFull even though physical slots
// remain. It models SRAM pressure (a smaller chip, or other tables eating
// the budget) without rebuilding the table, and is the hook the fault
// injector squeezes. limit <= 0 removes the cap. Existing entries are
// never evicted; lookups, relocations and deletes are unaffected.
func (t *Table) SetOccupancyLimit(limit int) {
	if limit < 0 {
		limit = 0
	}
	t.limit = limit
}

// EffectiveCapacity returns the entry budget insertions actually have:
// Capacity, lowered to the occupancy limit while one is set.
func (t *Table) EffectiveCapacity() int {
	if c := t.Capacity(); t.limit <= 0 || t.limit > c {
		return c
	}
	return t.limit
}

// EntryBits returns the packed width of one entry at the widest stage.
func (t *Table) EntryBits() int { return t.cfg.DigestBits + t.cfg.ValueBits + t.cfg.OverheadBits }

// EntryBitsStage returns the packed entry width in stage s.
func (t *Table) EntryBitsStage(s int) int {
	return t.stageBits[s] + t.cfg.ValueBits + t.cfg.OverheadBits
}

// SRAMBytes returns the table's SRAM footprint. With uniform digests every
// stage costs the same words; narrower-digest stages pack more entries per
// word and need fewer words for the same way count.
func (t *Table) SRAMBytes() int { return t.cfg.SRAMBytes() }

// SRAMBytes returns the SRAM footprint a table built from cfg would occupy,
// without building it — the asic package checks this against the chip
// budget before committing to an allocation. It applies the same defaults
// New does (112-bit words, uniform digests unless DigestBitsPerStage).
func (cfg Config) SRAMBytes() int {
	wordBits := cfg.WordBits
	if wordBits == 0 {
		wordBits = 112
	}
	total := 0
	for s := 0; s < cfg.Stages; s++ {
		digest := cfg.DigestBits
		if cfg.DigestBitsPerStage != nil && s < len(cfg.DigestBitsPerStage) {
			digest = cfg.DigestBitsPerStage[s]
		}
		perWord := wordBits / (digest + cfg.ValueBits + cfg.OverheadBits)
		if perWord < 1 {
			perWord = 1
		}
		slots := cfg.BucketsPerStage * cfg.Ways
		words := (slots + perWord - 1) / perWord
		total += words * wordBits / 8
	}
	return total
}

// bucketIndex returns the bucket of keyHash in stage s.
func (t *Table) bucketIndex(s int, keyHash uint64) int {
	return int(hashing.HashUint64(t.seeds[s], keyHash) % t.buckets)
}

// bases appends the position of keyHash's bucket (its way 0) in every stage
// to buf. A CPU-side operation computes them once and shares them between
// its duplicate check, placement and verification; callers pass a small
// stack buffer, so the common stage counts allocate nothing.
func (t *Table) bases(keyHash uint64, buf []int) []int {
	for s := range t.seeds {
		buf = append(buf, s*t.perStage+t.bucketIndex(s, keyHash)*t.cfg.Ways)
	}
	return buf
}

// stackStages sizes the callers' buffers for bases; a table with more stages
// still works, its buffers just move to the heap.
const stackStages = 8

// pos validates h and returns its position.
func (t *Table) pos(h Handle) (int, error) {
	if h.Stage < 0 || h.Stage >= t.cfg.Stages ||
		h.Bucket < 0 || h.Bucket >= t.cfg.BucketsPerStage ||
		h.Way < 0 || h.Way >= t.cfg.Ways {
		return 0, errBadHandle
	}
	return h.Stage*t.perStage + h.Bucket*t.cfg.Ways + h.Way, nil
}

// occupiedPos is pos for a handle that must name an installed entry.
func (t *Table) occupiedPos(h Handle) (int, error) {
	p, err := t.pos(h)
	if err != nil {
		return 0, err
	}
	if !occupied(t.words[p]) {
		return 0, ErrNotFound
	}
	return p, nil
}

func (t *Table) handleOf(pos int) Handle {
	in := pos % t.perStage
	return Handle{pos / t.perStage, in / t.cfg.Ways, in % t.cfg.Ways}
}

// Lookup performs the hardware lookup: probe each stage's bucket in
// pipeline order and return the first slot whose digest matches. It reads
// the hardware words only. The returned handle lets software-side callers
// inspect the matched entry.
func (t *Table) Lookup(keyHash uint64, digest uint32) (value uint32, h Handle, ok bool) {
	want := occupiedBit | digest
	ways := t.cfg.Ways
	for s, mask := range t.masks {
		b := t.bucketIndex(s, keyHash)
		base := s*t.perStage + b*ways
		for w, word := range t.words[base : base+ways] {
			// Equal occupied bit and equal digest bits at this stage's
			// width; the value bits are outside every mask.
			if (word^want)&mask == 0 {
				return t.wordValue(word), Handle{s, b, w}, true
			}
		}
	}
	return 0, Handle{}, false
}

// lookupIn is Lookup over precomputed bucket positions, returning the
// matching position.
func (t *Table) lookupIn(cand []int, digest uint32) (int, bool) {
	want := occupiedBit | digest
	for s, base := range cand {
		mask := t.masks[s]
		for w, word := range t.words[base : base+t.cfg.Ways] {
			if (word^want)&mask == 0 {
				return base + w, true
			}
		}
	}
	return 0, false
}

// anyDigest is the digest of an exact probe whose caller holds only the key
// hash: every occupant of the buckets is a candidate. No digest is this wide.
const anyDigest = ^uint32(0)

// findIn locates the entry whose key hash is keyHash among cand's buckets:
// the CPU's exact probe, which no digest alias can satisfy. A record-hashed
// table rehashes only occupants whose digest is digest (any, for anyDigest).
func (t *Table) findIn(cand []int, keyHash uint64, digest uint32) (int, bool) {
	for _, base := range cand {
		for p := base; p < base+t.cfg.Ways; p++ {
			w := t.words[p]
			if !occupied(w) {
				continue
			}
			if t.keys != nil {
				if t.keys[p] == keyHash {
					return p, true
				}
			} else if (digest == anyDigest || t.wordDigest(w) == digest) && t.rehash(t.recs[p]) == keyHash {
				return p, true
			}
		}
	}
	return 0, false
}

// find is findIn for a caller with nothing else to do with the positions.
func (t *Table) find(keyHash uint64, digest uint32) (int, bool) {
	var buf [stackStages]int
	return t.findIn(t.bases(keyHash, buf[:0]), keyHash, digest)
}

// Find is the switch CPU's exact probe: the entry installed for keyHash
// itself, where Lookup may return any entry whose digest matches. A
// record-hashed table derives the key hash of every occupant of keyHash's
// buckets; a caller that holds the key's digest uses FindDigest.
func (t *Table) Find(keyHash uint64) (Entry, bool) { return t.FindDigest(keyHash, anyDigest) }

// FindDigest is Find for a caller that holds the key's digest as well: only
// occupants whose digest is digest are compared, so a record-hashed table
// derives one key hash on almost every probe.
func (t *Table) FindDigest(keyHash uint64, digest uint32) (Entry, bool) {
	p, ok := t.find(keyHash, digest)
	if !ok {
		return Entry{}, false
	}
	return t.entryKeyed(p, t.handleOf(p), keyHash), true
}

// FindRecord returns the entry that carries record rec among keyHash's
// buckets: the way from a record the owner holds to its entry, with no key
// hash compared.
func (t *Table) FindRecord(keyHash uint64, rec uint32) (Entry, bool) {
	var buf [stackStages]int
	for _, base := range t.bases(keyHash, buf[:0]) {
		for p := base; p < base+t.cfg.Ways; p++ {
			if t.recs[p] == rec && occupied(t.words[p]) {
				return t.entryKeyed(p, t.handleOf(p), keyHash), true
			}
		}
	}
	return Entry{}, false
}

// EntryAt returns the entry installed at h.
func (t *Table) EntryAt(h Handle) (Entry, error) {
	p, err := t.occupiedPos(h)
	if err != nil {
		return Entry{}, err
	}
	return t.entry(p, h), nil
}

// EntryKeyHash returns the key hash of the entry at h, used by the control
// plane to detect digest false positives (a SYN that matched an entry whose
// true key differs).
func (t *Table) EntryKeyHash(h Handle) (uint64, error) {
	p, err := t.occupiedPos(h)
	if err != nil {
		return 0, err
	}
	return t.keyHashAt(p), nil
}

// Insert installs keyHash->value with the given digest, running the cuckoo
// BFS if all candidate slots are taken, then verifies that a lookup of the
// new key actually resolves to the new entry, relocating aliased entries if
// necessary. Returns the number of displacement moves performed. The entry
// carries no record (index 0), so a record-hashed table refuses it.
func (t *Table) Insert(keyHash uint64, digest uint32, value uint32) (moves int, err error) {
	return t.InsertRecord(keyHash, digest, value, 0)
}

// InsertRecord is Insert for an entry that owns a record: rec is stored in
// the entry's software half and stays with it through every later move. A
// record-hashed table refuses rec 0 (ErrNoRecord): it could not tell the
// entry's key.
func (t *Table) InsertRecord(keyHash uint64, digest, value, rec uint32) (moves int, err error) {
	if value > t.maxValue {
		return 0, ErrValueWidth
	}
	if digest > t.digestMask {
		return 0, ErrDigestWidth
	}
	if rec == 0 && t.keys == nil {
		return 0, ErrNoRecord
	}
	var buf [stackStages]int
	cand := t.bases(keyHash, buf[:0])
	if _, dup := t.findIn(cand, keyHash, digest); dup {
		return 0, ErrDuplicate
	}
	if t.len >= t.EffectiveCapacity() {
		// No free slot anywhere (or none under the occupancy limit): the
		// displacement search could only exhaust its budget.
		t.FailedInserts++
		return 0, ErrTableFull
	}
	p, moves, err := t.place(cand)
	if err != nil {
		t.FailedInserts++
		return moves, err
	}
	t.words[p], t.recs[p] = t.entryWord(digest, value), rec
	if t.keys != nil {
		t.keys[p] = keyHash
	}
	t.len++
	return moves, t.verifyAndFix(cand, p, keyHash, digest)
}

// place frees a position in one of cand's buckets for a new entry,
// displacing existing entries if needed, and returns it.
func (t *Table) place(cand []int) (pos, moves int, err error) {
	ways := t.cfg.Ways
	// Fast path: a free way in any candidate bucket, preferring
	// wider-digest stages (lower false-positive probability).
	for _, s := range t.stageOrder {
		for p := cand[s]; p < cand[s]+ways; p++ {
			if !occupied(t.words[p]) {
				return p, 0, nil
			}
		}
	}
	pos, moves, err = t.search(cand)
	for _, n := range t.queue {
		t.visited[n.pos>>6] &^= 1 << uint(n.pos&63)
	}
	return pos, moves, err
}

// visit marks position p as queued by the running search and reports
// whether it was not yet.
func (t *Table) visit(p int) bool {
	bit := uint64(1) << uint(p&63)
	fresh := t.visited[p>>6]&bit == 0
	t.visited[p>>6] |= bit
	return fresh
}

// search is the BFS over displacement moves: nodes are occupied positions we
// would vacate. Expanding a node means moving its occupant to one of its
// alternative buckets; if that bucket has a free way we found a path. It
// leaves the frontier in t.queue and a visited bit set for each of its
// nodes, for place to clear.
func (t *Table) search(cand []int) (pos, moves int, err error) {
	ways := t.cfg.Ways
	t.queue = t.queue[:0]
	for _, base := range cand {
		for p := base; p < base+ways; p++ {
			t.queue = append(t.queue, bfsNode{p, -1})
			t.visit(p)
		}
	}
	for i := 0; i < len(t.queue) && len(t.queue) < t.cfg.MaxBFSNodes; i++ {
		cur := t.queue[i]
		from, kh := cur.pos/t.perStage, t.keyHashAt(cur.pos)
		// Try to move cur's occupant to each of its alternative buckets.
		for s := 0; s < t.cfg.Stages; s++ {
			if s == from {
				continue
			}
			base := s*t.perStage + t.bucketIndex(s, kh)*ways
			for dst := base; dst < base+ways; dst++ {
				if !occupied(t.words[dst]) {
					// Found a free slot: unwind the move chain. Move
					// cur's occupant to dst, then each ancestor's
					// occupant into the slot its child vacated; the root
					// (first ancestor) ends up free for the new entry.
					root, moves := t.applyChain(cur, dst)
					t.TotalMoves += moves
					return root, moves, nil
				}
				if t.visit(dst) {
					t.queue = append(t.queue, bfsNode{dst, i})
				}
			}
		}
	}
	return 0, 0, ErrTableFull
}

// bfsNode is one frontier element of the insertion search: an occupied
// position and the index of the node whose expansion reached it.
type bfsNode struct {
	pos    int
	parent int
}

// move carries the entry at src, both halves, to the free position dst.
func (t *Table) move(dst, src int) {
	t.words[dst], t.recs[dst] = t.words[src], t.recs[src]
	if t.keys != nil {
		t.keys[dst] = t.keys[src]
	}
	t.clear(src)
}

// clear empties position p, both halves.
func (t *Table) clear(p int) {
	t.words[p], t.recs[p] = 0, 0
	if t.keys != nil {
		t.keys[p] = 0
	}
}

// applyChain moves occupants along the BFS parent chain: the occupant of
// leaf moves to free, the occupant of leaf's parent moves into leaf's old
// slot, and so on up to the root. Returns the root's position, now free,
// and the number of moves.
func (t *Table) applyChain(leaf bfsNode, free int) (root, moves int) {
	cur, dst := leaf, free
	for {
		t.move(dst, cur.pos)
		moves++
		if cur.parent == -1 {
			return cur.pos, moves
		}
		dst = cur.pos
		cur = t.queue[cur.parent]
	}
}

// verifyAndFix ensures that looking up keyHash, whose bucket positions are
// cand and whose entry was just put at p, returns keyHash's own entry. If an
// entry in an earlier stage aliases (same bucket index for this key, same
// digest, different key), it is relocated to another stage where the keys
// separate — the paper's SYN-collision resolution. Bounded retries.
func (t *Table) verifyAndFix(cand []int, p int, keyHash uint64, digest uint32) error {
	for attempt := 0; attempt < 8; attempt++ {
		got, ok := t.lookupIn(cand, digest)
		if !ok {
			return ErrNotFound // cannot happen while keyHash is installed
		}
		// Until a relocation has run the entry is still at p; the relocated
		// alias's own verification may move it, and then only its key tells.
		if attempt == 0 && got == p || attempt > 0 && t.keyHashAt(got) == keyHash {
			return nil
		}
		// got aliases keyHash: relocate the aliasing entry.
		if err := t.relocate(got); err != nil {
			return fmt.Errorf("%w: %v", ErrUnresolved, err)
		}
		t.AliasesFixed++
	}
	return ErrUnresolved
}

// Relocate moves the entry at h to a different stage, resolving a digest
// collision detected by the control plane (a redirected SYN). The entry's
// own lookup invariant is re-verified after the move.
func (t *Table) Relocate(h Handle) error {
	p, err := t.occupiedPos(h)
	if err != nil {
		return err
	}
	return t.relocate(p)
}

func (t *Table) relocate(src int) error {
	keyHash, digest := t.keyHashAt(src), t.wordDigest(t.words[src])
	var buf [stackStages]int
	cand := t.bases(keyHash, buf[:0])
	from := src / t.perStage
	for s, base := range cand {
		if s == from {
			continue
		}
		for dst := base; dst < base+t.cfg.Ways; dst++ {
			if !occupied(t.words[dst]) {
				t.move(dst, src)
				t.Relocations++
				// The moved entry must still resolve to itself.
				return t.verifyAndFix(cand, dst, keyHash, digest)
			}
		}
	}
	return ErrTableFull
}

// Delete removes the entry whose key hash is keyHash. Returns false if no
// such entry exists.
func (t *Table) Delete(keyHash uint64) bool {
	p, ok := t.find(keyHash, anyDigest)
	if !ok {
		return false
	}
	t.clear(p)
	t.len--
	return true
}

// DeleteAt removes the entry at h, for a caller that already probed for it.
func (t *Table) DeleteAt(h Handle) error {
	p, err := t.occupiedPos(h)
	if err != nil {
		return err
	}
	t.clear(p)
	t.len--
	return nil
}

// Walk calls fn for every installed entry in physical (stage, bucket, way)
// order until fn returns false. fn may delete the entry it is shown.
func (t *Table) Walk(fn func(Entry) bool) {
	for p, w := range t.words {
		if occupied(w) && !fn(t.entry(p, t.handleOf(p))) {
			return
		}
	}
}

// Iterate calls fn for every installed entry until fn returns false.
func (t *Table) Iterate(fn func(keyHash uint64, digest uint32, value uint32) bool) {
	t.Walk(func(e Entry) bool { return fn(e.KeyHash, e.Digest, e.Value) })
}

// StageStats describes the fill level of one physical stage — the raw
// material for an SRAM occupancy heatmap.
type StageStats struct {
	Stage      int `json:"stage"`
	Used       int `json:"used"`
	Slots      int `json:"slots"`
	DigestBits int `json:"digest_bits"`
	EntryBits  int `json:"entry_bits"`
}

// StageOccupancy returns per-stage slot usage in stage (pipeline) order.
func (t *Table) StageOccupancy() []StageStats {
	out := make([]StageStats, t.cfg.Stages)
	for s := range out {
		used := 0
		for _, w := range t.words[s*t.perStage : (s+1)*t.perStage] {
			if occupied(w) {
				used++
			}
		}
		out[s] = StageStats{
			Stage:      s,
			Used:       used,
			Slots:      t.perStage,
			DigestBits: t.stageBits[s],
			EntryBits:  t.EntryBitsStage(s),
		}
	}
	return out
}

// Entry is the switch CPU's view of one installed entry: its physical
// location, the contents of its hardware word, and its software half.
type Entry struct {
	Stage   int    `json:"stage"`
	Bucket  int    `json:"bucket"`
	Way     int    `json:"way"`
	KeyHash uint64 `json:"key_hash"`
	Digest  uint32 `json:"digest"`
	Value   uint32 `json:"value"`
	Record  uint32 `json:"-"` // the owner's record index, 0 = none
}

// Handle returns e's physical location.
func (e Entry) Handle() Handle { return Handle{e.Stage, e.Bucket, e.Way} }

// entry reads the entry at position p, which is where h points.
func (t *Table) entry(p int, h Handle) Entry { return t.entryKeyed(p, h, t.keyHashAt(p)) }

// entryKeyed is entry for a caller that knows the entry's key hash.
func (t *Table) entryKeyed(p int, h Handle, keyHash uint64) Entry {
	w := t.words[p]
	return Entry{
		Stage: h.Stage, Bucket: h.Bucket, Way: h.Way,
		KeyHash: keyHash, Digest: t.wordDigest(w), Value: t.wordValue(w), Record: t.recs[p],
	}
}

// Entries dumps every installed entry in physical (stage, bucket, way)
// order. Intended for debug surfaces; cost is O(capacity).
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.len)
	t.Walk(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}
