// Package hashing provides the deterministic hash primitives used throughout
// the SilkRoad reproduction: a seeded 64-bit mixing hash, families of
// pairwise-independent hash functions (one per pipeline stage, as in the
// paper's multi-stage ConnTable), and connection digests.
//
// Switching ASICs expose generic hash units (CRC variants with configurable
// polynomials) that functions like ECMP, LAG and exact-match addressing
// share. We model that with a software hash of equivalent quality: a
// murmur-style finalizer over FNV-style lane mixing, parameterized by a
// 64-bit seed. Different seeds behave as independent functions, which is all
// the cuckoo table, bloom filter, and ECMP need.
package hashing

import "encoding/binary"

// mix64 is the splitmix64 finalizer; it is a bijection on uint64 with good
// avalanche behaviour, so distinct seeds give effectively independent hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// start and absorb are Hash64's recurrence over 64-bit lanes: the state
// starts at start(seed), absorbs each lane's mix64 in order, and is
// finalized by mix64. Data is read as its whole little-endian 8-byte words,
// then — when its length is not a multiple of 8 — one tail lane (TailLane).
func start(seed uint64) uint64 { return mix64(seed ^ 0x9e3779b97f4a7c15) }

func absorb(h, mixed uint64) uint64 { return (h ^ mixed) * 0x2545f4914f6cdd1d }

// TailLane is the lane Hash64 reads for the last n (1..7) bytes of its
// data, whose little-endian value is word: the bytes tagged with their
// count in the top byte, so data that differs only in trailing zero bytes
// hashes apart.
func TailLane(word uint64, n int) uint64 { return word | uint64(n)<<56 }

// Hash64 hashes data with the given seed. It processes 8-byte lanes with
// multiply-xor mixing and finalizes with splitmix64.
func Hash64(seed uint64, data []byte) uint64 {
	h := start(seed)
	for len(data) >= 8 {
		h = absorb(h, mix64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	if len(data) > 0 {
		var tail [8]byte
		copy(tail[:], data)
		h = absorb(h, mix64(TailLane(binary.LittleEndian.Uint64(tail[:]), len(data))))
	}
	return mix64(h)
}

// HashLanes is Hash64(seed, data) for data already packed into its lanes
// (whole words, then the TailLane) — the form for fixed-layout keys, which
// can pack their fields into lanes directly instead of serializing them.
func HashLanes(seed uint64, lanes []uint64) uint64 {
	h := start(seed)
	for _, k := range lanes {
		h = absorb(h, mix64(k))
	}
	return mix64(h)
}

// HashDigestLanes is HashLanes under seed and Digest(seedBits, bits, ·) of
// the same lanes, computed in one pass: each lane is mixed once and absorbed
// into both states, as a hash unit would feed one extracted key to two
// polynomials.
func HashDigestLanes(seed, seedBits uint64, bits int, lanes []uint64) (uint64, uint32) {
	if bits <= 0 || bits > 32 {
		panic("hashing: digest width must be in 1..32")
	}
	h, d := start(seed), start(seedBits^digestSalt)
	for _, k := range lanes {
		m := mix64(k)
		h, d = absorb(h, m), absorb(d, m)
	}
	return mix64(h), uint32(mix64(d) >> (64 - uint(bits)))
}

// HashUint64 hashes a single 64-bit value with the given seed. It is used on
// hot paths where the key is already a fixed-width integer (e.g. a packed
// 5-tuple hash), avoiding byte-slice traffic.
func HashUint64(seed, x uint64) uint64 {
	return mix64(mix64(seed^0x9e3779b97f4a7c15) ^ mix64(x))
}

// Family is an ordered set of independent hash functions. The ASIC model
// assigns one member per physical stage so that an entry colliding in one
// stage can be relocated to another stage where the two keys hash apart
// (§4.2 of the paper).
type Family struct {
	seeds []uint64
}

// NewFamily derives n independent hash functions from a master seed.
func NewFamily(n int, masterSeed uint64) *Family {
	if n <= 0 {
		panic("hashing: family size must be positive")
	}
	seeds := make([]uint64, n)
	s := masterSeed
	for i := range seeds {
		s = mix64(s + 0x9e3779b97f4a7c15)
		seeds[i] = s
	}
	return &Family{seeds: seeds}
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Hash applies function i to data.
func (f *Family) Hash(i int, data []byte) uint64 {
	return Hash64(f.seeds[i], data)
}

// HashUint64 applies function i to a fixed-width key.
func (f *Family) HashUint64(i int, x uint64) uint64 {
	return HashUint64(f.seeds[i], x)
}

// Seed exposes the seed of function i, letting callers derive further
// sub-functions deterministically.
func (f *Family) Seed(i int) uint64 { return f.seeds[i] }

// Digest computes a b-bit connection digest (1..32 bits) of data, as stored
// in ConnTable match fields instead of the full 5-tuple. Digests use a seed
// disjoint from the stage-addressing family so that "same bucket" and "same
// digest" are independent events, which is what keeps the false-positive
// rate at (collisions per bucket) x 2^-b.
func Digest(seedBits uint64, bits int, data []byte) uint32 {
	if bits <= 0 || bits > 32 {
		panic("hashing: digest width must be in 1..32")
	}
	return uint32(Hash64(seedBits^digestSalt, data) >> (64 - uint(bits)))
}

// digestSalt keeps Digest's functions disjoint from Hash64's under the
// same seed.
const digestSalt = 0xd1ce5fca11ab1e00

// DigestUint64 computes a b-bit digest of a key already reduced to a
// fixed-width 64-bit value (synthetic keys with no tuple behind them). The
// seed-disjointness rules of Digest apply; the two functions produce
// unrelated digests and must not be mixed on one table.
func DigestUint64(seedBits uint64, bits int, x uint64) uint32 {
	if bits <= 0 || bits > 32 {
		panic("hashing: digest width must be in 1..32")
	}
	return uint32(HashUint64(seedBits^digestSalt, x) >> (64 - uint(bits)))
}
