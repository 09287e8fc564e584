package hashing

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	data := []byte("1.2.3.4:1234->20.0.0.1:80/tcp")
	a := Hash64(42, data)
	b := Hash64(42, data)
	if a != b {
		t.Fatalf("Hash64 not deterministic: %x != %x", a, b)
	}
}

func TestHash64SeedIndependence(t *testing.T) {
	data := []byte("same input")
	if Hash64(1, data) == Hash64(2, data) {
		t.Fatal("different seeds produced identical hashes (astronomically unlikely)")
	}
}

func TestHash64EmptyAndShort(t *testing.T) {
	// Must not panic, and short inputs of different lengths must differ.
	seen := map[uint64][]byte{}
	inputs := [][]byte{{}, {0}, {0, 0}, {0, 0, 0}, {0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}}
	for _, in := range inputs {
		h := Hash64(7, in)
		if prev, dup := seen[h]; dup {
			t.Fatalf("length-dependent collision between %v and %v", prev, in)
		}
		seen[h] = in
	}
}

func TestHash64TailLengthMatters(t *testing.T) {
	// Inputs that share a prefix but differ only in trailing zero count must
	// still hash differently (the tail encoding folds in the length).
	a := Hash64(9, []byte{1, 2, 3})
	b := Hash64(9, []byte{1, 2, 3, 0})
	if a == b {
		t.Fatal("trailing zero byte did not change the hash")
	}
}

// TestHash64Vectors pins Hash64 and Digest bit for bit: ConnTable placement,
// digests and DIP choice on a one-pipe switch, and every golden built on
// them, rest on these values.
func TestHash64Vectors(t *testing.T) {
	data := []byte("0123456789abcdefghijklmnopqrstuvwxyz0")
	for _, v := range []struct {
		n      int
		hash   uint64
		digest uint32
	}{
		{0, 0x6f7460ca9b211d8d, 0x38a7},
		{1, 0x191e39b2efe2847a, 0xc2e0},
		{7, 0xe9d8e523e41b798c, 0x3003},
		{8, 0x79638b1ecc3b0243, 0xb87e},
		{13, 0x1aa529fb06730b30, 0xc43f},
		{16, 0xc16a541be52eaa63, 0xf96},
		{37, 0xb16fd92d655c1494, 0x42be},
	} {
		if h, d := Hash64(0x5eed, data[:v.n]), Digest(0x5eed, 16, data[:v.n]); h != v.hash || d != v.digest {
			t.Errorf("%d bytes: Hash64 %#x Digest %#x, want %#x %#x", v.n, h, d, v.hash, v.digest)
		}
	}
}

// TestHashLanesMatchHash64 checks the lane forms against the byte forms for
// every length a lane packing can end on: data packed as its little-endian
// words, then the tail with its byte count in the top byte.
func TestHashLanesMatchHash64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 41; n++ {
		for trial := 0; trial < 50; trial++ {
			data := make([]byte, n)
			rng.Read(data)
			var lanes []uint64
			for i := 0; i < n; i += 8 {
				var w [8]byte
				copy(w[:], data[i:])
				if k := n - i; k < 8 {
					w[7] = byte(k)
				}
				lanes = append(lanes, binary.LittleEndian.Uint64(w[:]))
			}
			seed, seedBits := rng.Uint64(), rng.Uint64()
			if got, want := HashLanes(seed, lanes), Hash64(seed, data); got != want {
				t.Fatalf("%d bytes: HashLanes %#x, Hash64 %#x", n, got, want)
			}
			for bits := 1; bits <= 32; bits++ {
				h, d := HashDigestLanes(seed, seedBits, bits, lanes)
				if h != Hash64(seed, data) || d != Digest(seedBits, bits, data) {
					t.Fatalf("%d bytes, %d bits: HashDigestLanes %#x %#x, byte forms %#x %#x",
						n, bits, h, d, Hash64(seed, data), Digest(seedBits, bits, data))
				}
			}
		}
	}
}

func TestFamilyIndependence(t *testing.T) {
	f := NewFamily(8, 12345)
	if f.Size() != 8 {
		t.Fatalf("Size = %d, want 8", f.Size())
	}
	data := []byte("a connection tuple")
	seen := map[uint64]bool{}
	for i := 0; i < f.Size(); i++ {
		h := f.Hash(i, data)
		if seen[h] {
			t.Fatalf("stage %d repeated a hash value", i)
		}
		seen[h] = true
	}
}

func TestFamilyDeterministicAcrossConstruction(t *testing.T) {
	a := NewFamily(4, 99)
	b := NewFamily(4, 99)
	for i := 0; i < 4; i++ {
		if a.Seed(i) != b.Seed(i) {
			t.Fatalf("family seeds diverge at %d", i)
		}
	}
}

func TestFamilyPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFamily(0) did not panic")
		}
	}()
	NewFamily(0, 1)
}

func TestDigestWidth(t *testing.T) {
	data := []byte("tuple")
	for bits := 1; bits <= 32; bits++ {
		d := Digest(5, bits, data)
		if bits < 32 && d >= 1<<uint(bits) {
			t.Fatalf("Digest(%d bits) = %#x exceeds width", bits, d)
		}
	}
}

func TestDigestPanicsOnBadWidth(t *testing.T) {
	for _, bits := range []int{0, 33, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Digest(bits=%d) did not panic", bits)
				}
			}()
			Digest(1, bits, []byte("x"))
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("HashDigestLanes(bits=%d) did not panic", bits)
				}
			}()
			HashDigestLanes(1, 2, bits, []uint64{'x'})
		}()
	}
}

// TestHash64Avalanche checks that flipping any single input bit flips close
// to half the output bits on average — the property that makes bucket
// addressing and digests behave independently.
func TestHash64Avalanche(t *testing.T) {
	base := []byte("avalanche-test-input-0123456789")
	h0 := Hash64(11, base)
	total, samples := 0, 0
	for bytePos := 0; bytePos < len(base); bytePos++ {
		for bit := 0; bit < 8; bit++ {
			mod := append([]byte(nil), base...)
			mod[bytePos] ^= 1 << uint(bit)
			diff := h0 ^ Hash64(11, mod)
			total += popcount64(diff)
			samples++
		}
	}
	mean := float64(total) / float64(samples)
	if math.Abs(mean-32) > 3 {
		t.Fatalf("avalanche mean flipped bits = %.2f, want ~32", mean)
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Property: HashUint64 is deterministic and seed-sensitive.
func TestHashUint64Property(t *testing.T) {
	f := func(seed, x uint64) bool {
		return HashUint64(seed, x) == HashUint64(seed, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(x uint64) bool {
		return HashUint64(1, x) != HashUint64(2, x) || x == 0 && false
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Digest is a pure function of (seed, bits, data).
func TestDigestProperty(t *testing.T) {
	f := func(seed uint64, data []byte) bool {
		return Digest(seed, 16, data) == Digest(seed, 16, data) &&
			Digest(seed, 16, data) < 1<<16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDigestCollisionRate checks the 16-bit digest collision probability is
// near 2^-16 for random pairs, the figure the paper's 0.01% false-positive
// estimate rests on.
func TestDigestCollisionRate(t *testing.T) {
	const n = 1 << 14
	counts := make(map[uint32]int, n)
	var buf [12]byte
	for i := 0; i < n; i++ {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), 0x5a
		counts[Digest(77, 16, buf[:])]++
	}
	// With 2^14 keys into 2^16 slots, expected max load is tiny; assert no
	// slot exceeds 6 (p < 1e-9 under uniformity).
	for d, c := range counts {
		if c > 6 {
			t.Fatalf("digest %#x appeared %d times; distribution is skewed", d, c)
		}
	}
}

func BenchmarkHash64Tuple(b *testing.B) {
	data := []byte("1.2.3.4:1234->20.0.0.1:80/tcp---37-byte-ipv6-key")
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Hash64(uint64(i), data)
	}
}

func BenchmarkHashUint64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashUint64(42, uint64(i))
	}
}
