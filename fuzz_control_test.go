package silkroad

// Fuzz targets for the two control inputs a switch takes from outside its
// own process: a declarative spec (ParseSpec, then Apply and the reconcile
// loop) and connection-state handoff entries (Import). Neither may panic,
// and neither may leave work queued that never drains.

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"os"
	"slices"
	"testing"

	"repro/internal/handoff"
)

// fuzzSwitch is a small one-pipe switch on a manual clock, one per input so
// a crasher reproduces from its input alone.
func fuzzSwitch(t *testing.T) *Switch {
	t.Helper()
	cfg := Defaults(4096)
	cfg.Clock = NewManualClock(0)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// FuzzParseSpec feeds arbitrary bytes through ParseSpec and Apply. A spec
// is refused with field errors, or applied and converged by the reconcile
// loop within a bounded stretch of virtual time.
func FuzzParseSpec(f *testing.F) {
	if quickstart, err := os.ReadFile("examples/specs/quickstart.json"); err == nil {
		f.Add(quickstart)
	}
	for _, s := range []string{
		`{"version":"silkroad/v1","vips":[]}`,
		`{"version":"silkroad/v1","generation":7,"vips":[{"vip":"20.0.0.1:80/udp","pool":["10.0.0.1:20","10.0.0.1:20"],"meter_bytes_per_sec":1e6}]}`,
		`{"version":"silkroad/v1","vips":[{"vip":"[2001:db8::1]:443","pool":["[2001:db8::a]:8443"]},{"vip":"20.0.0.2:80","pool":[]}]}`,
		`{"version":"silkroad/v1","vips":[{"vip":"20.0.0.1:80","pool":["10.0.0.1:20"]},{"vip":"20.0.0.1:80","pool":["10.0.0.2:20"]}]}`,
		`{"version":"silkroad/v2","vips":[{"vip":"20.0.0.1:0","pool":["10.0.0.1:99999"],"demand_sram_bytes":-1}]}`,
		`{"version":"silkroad/v1","vips":[],"extra":true}`,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			requireFieldErrors(t, "ParseSpec", err)
			return
		}
		sw := fuzzSwitch(t)
		now := Time(0)
		if _, err := sw.Apply(now, spec); err != nil {
			requireFieldErrors(t, "Apply", err)
			return
		}
		for i := 0; !sw.Converged(); i++ {
			if i == 200 {
				t.Fatalf("applied spec never converged: statuses %+v", sw.VIPStatuses())
			}
			now = now.Add(100 * Millisecond)
			sw.AdvanceTo(now)
		}
	})
}

// requireFieldErrors fails t unless err is a validation error naming at
// least one field error.
func requireFieldErrors(t *testing.T, call string, err error) {
	t.Helper()
	var ve *SpecValidationError
	if !errors.As(err, &ve) || len(ve.Errors) == 0 {
		t.Fatalf("%s: %v is not a spec validation error with field errors", call, err)
	}
}

// fuzzEntryBytes is the length of one entry in FuzzImport's input.
const fuzzEntryBytes = 8

// fuzzEntries decodes data, eight bytes an entry:
//
//	byte 0    bit 0: a delete; bits 1-2: the VIP (0, 1: the switch's; 2: an
//	          unknown IPv4 VIP; 3: an unknown IPv6 VIP)
//	byte 1    the client, one of 32, so tuples repeat
//	bytes 2-5 the donor's version, any uint32 (most lie past VersionBits)
//	byte 6    bits 0-2: the pool size, 0 to 7; bits 3-5: the pool's stride
//	          less one, so slot k holds DIP index byte 7 + k*stride (mod 8)
//	byte 7    the DIP index the entry resolved to, and the pool's offset
func fuzzEntries(data []byte) []ConnEntry {
	vips := [4]VIP{testVIP(), testVIP(),
		NewVIP("20.0.0.9", 80, TCP), NewVIP("2001:db8::9", 80, TCP)}
	dip := func(i byte) DIP {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1 + i%8}), 20)
	}
	var out []ConnEntry
	for ; len(data) >= fuzzEntryBytes; data = data[fuzzEntryBytes:] {
		e := ConnEntry{
			VIP:     vips[data[0]>>1&3],
			Version: binary.LittleEndian.Uint32(data[2:6]),
			DIP:     dip(data[7]),
		}
		if data[0]&1 != 0 {
			e.Op = handoff.OpDelete
		}
		e.Tuple = FiveTuple{
			Src: netip.AddrFrom4([4]byte{1, 2, 3, data[1] % 32}), Dst: e.VIP.Addr,
			SrcPort: 1024 + uint16(data[1]%32), DstPort: e.VIP.Port, Proto: e.VIP.Proto,
		}
		for k, stride := byte(0), 1+data[6]>>3&7; k < data[6]&7; k++ {
			e.Pool = append(e.Pool, dip(data[7]+k*stride))
		}
		out = append(out, e)
	}
	return out
}

// FuzzImport hands Import arbitrary entries: empty pools, versions past
// VersionBits, duplicate tuples and unknown VIPs among them. Each
// non-delete entry is imported or skipped, every connection the switch
// then holds is one it imported, pinned to a row equal slot for slot to a
// pool offered for it (a DIP is picked by slot, so the same DIPs in
// another order are another mapping), and its pending work drains to zero.
func FuzzImport(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 0, 3, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 0, 3, 0, 0, 1, 2, 0, 0, 0, 3, 1})
	f.Add([]byte{4, 5, 0xff, 0xff, 0xff, 0xff, 0, 2, 6, 6, 9, 0, 0, 0, 1, 0, 1, 7, 1, 0, 0, 0, 2, 0})
	// The switch's own pool reversed: 10.0.0.3, .2, .1 (stride 7 = -1).
	f.Add([]byte{0, 1, 1, 0, 0, 0, 6<<3 | 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		sw := fuzzSwitch(t)
		if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
			t.Fatal(err)
		}
		entries := fuzzEntries(data)
		imported, skipped, err := sw.Import(0, &ConnSnapshot{Entries: entries})
		if err != nil {
			t.Fatalf("Import: %v", err)
		}
		offered := make(map[FiveTuple][][]DIP)
		n := 0
		for _, e := range entries {
			if e.Op != handoff.OpDelete {
				offered[e.Tuple] = append(offered[e.Tuple], e.Pool)
				n++
			}
		}
		if imported+skipped != n {
			t.Fatalf("imported %d + skipped %d of %d entries", imported, skipped, n)
		}
		now := Time(0)
		for i := 0; sw.PendingWork() != 0; i++ {
			if i == 100 {
				t.Fatalf("pending work never drained: %d left", sw.PendingWork())
			}
			now = now.Add(10 * Millisecond)
			sw.AdvanceTo(now)
		}
		held := sw.Export(now).Entries
		if len(held) > imported {
			t.Fatalf("switch holds %d connections after importing %d", len(held), imported)
		}
		for _, e := range held {
			pools, ok := offered[e.Tuple]
			if !ok {
				t.Fatalf("switch holds %v, which no entry offered", e.Tuple)
			}
			if !slices.ContainsFunc(pools, func(p []DIP) bool { return slices.Equal(p, e.Pool) }) {
				t.Fatalf("switch holds %v on pool %v, offered only %v", e.Tuple, e.Pool, pools)
			}
		}
	})
}
