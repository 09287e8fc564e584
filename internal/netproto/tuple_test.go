package netproto

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/hashing"
)

// randTuple returns a random TCP or UDP tuple of one family: "v4", "v6", or
// "4in6" (IPv4-mapped IPv6 addresses, which KeyBytes lays out as 16 bytes
// because Src.Is4() is false for them).
func randTuple(rng *rand.Rand, family string) FiveTuple {
	addr := func() netip.Addr {
		var b [16]byte
		rng.Read(b[:])
		switch family {
		case "v4":
			return netip.AddrFrom4([4]byte(b[:4]))
		case "4in6":
			return netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
		}
		return netip.AddrFrom16(b)
	}
	proto := ProtoTCP
	if rng.Intn(2) == 1 {
		proto = ProtoUDP
	}
	return FiveTuple{Src: addr(), Dst: addr(),
		SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: proto}
}

// laneBytes writes lanes back as the bytes hashing.Hash64 would have read
// them from: whole little-endian words, then the tail lane's low bytes, as
// many as the count in its top byte says. It reports false when the last
// lane's tag is not a count of 1..7.
func laneBytes(lanes []uint64) ([]byte, bool) {
	var out []byte
	for i, l := range lanes {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], l)
		if i < len(lanes)-1 {
			out = append(out, w[:]...)
			continue
		}
		n := int(w[7])
		if n < 1 || n > 7 || l<<8>>(8+8*uint(n)) != 0 { // bytes n..6 must be zero

			return nil, false
		}
		out = append(out, w[:n]...)
	}
	return out, true
}

// TestLanesAreKeyBytes checks that a tuple's lanes are its KeyBytes, word for
// word and tail tag included, for both families and IPv4-mapped IPv6, and
// that TupleHash is Hash64 over KeyBytes.
func TestLanesAreKeyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct {
		family string
		lanes  int
	}{{"v4", 2}, {"v6", 5}, {"4in6", 5}} {
		t.Run(tc.family, func(t *testing.T) {
			for i := 0; i < 2000; i++ {
				tup := randTuple(rng, tc.family)
				var keyBuf [37]byte
				var laneBuf [5]uint64
				key, lanes := tup.KeyBytes(keyBuf[:]), tup.Lanes(&laneBuf)
				if len(lanes) != tc.lanes {
					t.Fatalf("%v: %d lanes, want %d", tup, len(lanes), tc.lanes)
				}
				got, ok := laneBytes(lanes)
				if !ok || string(got) != string(key) {
					t.Fatalf("%v: lanes %#x write back as % x (tag ok %v), KeyBytes % x", tup, lanes, got, ok, key)
				}
				seed := rng.Uint64()
				if h, want := TupleHash(seed, &tup), hashing.Hash64(seed, key); h != want {
					t.Fatalf("%v: TupleHash %#x, Hash64 over KeyBytes %#x", tup, h, want)
				}
			}
		})
	}
}

// TestLanesZeroAlloc: the lane form exists so that hashing a tuple needs no
// serialization buffer.
func TestLanesZeroAlloc(t *testing.T) {
	t4, t6 := tcpTuple4(), tcpTuple6()
	if n := testing.AllocsPerRun(200, func() {
		hashSink += TupleHash(1, &t4) + TupleHash(2, &t6)
	}); n != 0 {
		t.Fatalf("TupleHash allocates %v per run", n)
	}
}

// hashSink keeps the benchmarks' hashes live.
var hashSink uint64

// BenchmarkTupleHash compares the lane form with the serialize-and-hash
// form it replaces, on one IPv4 tuple.
func BenchmarkTupleHash(b *testing.B) {
	tup := tcpTuple4()
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashSink += TupleHash(uint64(i), &tup)
		}
	})
	b.Run("keybytes", func(b *testing.B) {
		var buf [37]byte
		for i := 0; i < b.N; i++ {
			hashSink += hashing.Hash64(uint64(i), tup.KeyBytes(buf[:]))
		}
	})
}
