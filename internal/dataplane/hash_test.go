package dataplane

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/hashing"
	"repro/internal/netproto"
)

// hashSwitch builds a switch whose connection digests are bits wide. An
// entry word holds at most 30 digest bits beside a version, so a wider
// digest — which hashing.Digest still defines — is checked on a switch
// built at 30 bits with its width raised afterwards: ConnHashes reads
// nothing else of the configuration.
func hashSwitch(tb testing.TB, bits int, seed uint64) *Switch {
	tb.Helper()
	cfg := DefaultConfig(64)
	cfg.Seed = seed
	cfg.VersionBits = 1
	cfg.DigestBits = min(bits, 30)
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.cfg.DigestBits = bits
	return s
}

// tupleOf builds a tuple of family 0 (IPv4), 1 (IPv6) or 2 (IPv4-mapped
// IPv6) from raw address words.
func tupleOf(family uint8, src, dst [2]uint64, sport, dport uint16, proto uint8) netproto.FiveTuple {
	addr := func(w [2]uint64) netip.Addr {
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], w[0])
		binary.BigEndian.PutUint64(b[8:], w[1])
		switch family % 3 {
		case 0:
			return netip.AddrFrom4([4]byte(b[12:]))
		case 2:
			return netip.AddrFrom16(netip.AddrFrom4([4]byte(b[12:])).As16())
		}
		return netip.AddrFrom16(b)
	}
	return netproto.FiveTuple{Src: addr(src), Dst: addr(dst), SrcPort: sport, DstPort: dport, Proto: netproto.Proto(proto)}
}

// checkConnHashes compares every tuple hash the switch computes with the
// byte hashes over KeyBytes that define them.
func checkConnHashes(tb testing.TB, s *Switch, tup netproto.FiveTuple) {
	var buf [37]byte
	key := tup.KeyBytes(buf[:])
	wantKH := hashing.Hash64(s.connSeed, key)
	wantDG := hashing.Digest(s.digestSeed, s.cfg.DigestBits, key)
	kh, dg := s.ConnHashes(tup)
	if kh != wantKH || dg != wantDG || s.KeyHash(tup) != wantKH || s.ConnDigest(tup) != wantDG {
		tb.Fatalf("%v at %d digest bits: ConnHashes %#x/%#x, KeyHash %#x, ConnDigest %#x; byte hashes %#x/%#x",
			tup, s.cfg.DigestBits, kh, dg, s.KeyHash(tup), s.ConnDigest(tup), wantKH, wantDG)
	}
}

// TestConnHashesMatchByteHashes holds the one-pass connection hashes to the
// byte hashes over KeyBytes — the scheme every one-pipe golden was recorded
// under — for both families, IPv4-mapped IPv6, and digest widths 1 to 32.
func TestConnHashesMatchByteHashes(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	rng := rand.New(rand.NewSource(29))
	for _, bits := range []int{1, 8, 16, 24, 32} {
		s := hashSwitch(t, bits, rng.Uint64())
		for family := uint8(0); family < 3; family++ {
			for i := 0; i < n; i++ {
				tup := tupleOf(family, [2]uint64{rng.Uint64(), rng.Uint64()}, [2]uint64{rng.Uint64(), rng.Uint64()},
					uint16(rng.Uint32()), uint16(rng.Uint32()), uint8(rng.Uint32()))
				checkConnHashes(t, s, tup)
			}
		}
	}
}

// FuzzConnHashes makes the comparison of TestConnHashesMatchByteHashes on
// fuzzer-chosen addresses, ports, protocol and digest width.
func FuzzConnHashes(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0x01020304), uint64(0), uint64(0x14000001), uint16(1234), uint16(80), uint8(6), uint8(15))
	f.Add(uint8(1), uint64(0x20010db8<<32), uint64(1), uint64(0x20010db8<<32), uint64(0xfeed), uint16(40000), uint16(443), uint8(17), uint8(23))
	f.Add(uint8(2), uint64(0), uint64(0xc0a80001), uint64(0), uint64(0x0a000001), uint16(0), uint16(0xffff), uint8(0), uint8(31))
	var switches [32]*Switch
	for i := range switches {
		switches[i] = hashSwitch(f, i+1, 0xa5a5+uint64(i))
	}
	f.Fuzz(func(t *testing.T, family uint8, srcHi, srcLo, dstHi, dstLo uint64, sport, dport uint16, proto, width uint8) {
		tup := tupleOf(family, [2]uint64{srcHi, srcLo}, [2]uint64{dstHi, dstLo}, sport, dport, proto)
		checkConnHashes(t, switches[width%32], tup)
	})
}

// hashSink keeps the benchmarks' hashes live.
var hashSink uint64

// BenchmarkConnHashes measures the one pass against the serialize-and-hash
// pair it replaced, on one IPv4 tuple at the paper's 16-bit digest.
func BenchmarkConnHashes(b *testing.B) {
	s := hashSwitch(b, 16, 1)
	tup := clientTuple(7)
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kh, dg := s.ConnHashes(tup)
			hashSink += kh + uint64(dg)
		}
	})
	b.Run("keybytes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf [37]byte
			key := tup.KeyBytes(buf[:])
			hashSink += hashing.Hash64(s.connSeed, key) + uint64(hashing.Digest(s.digestSeed, 16, key))
		}
	})
}
