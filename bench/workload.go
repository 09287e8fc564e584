package main

import (
	"fmt"
	"math/rand"
	"net/netip"

	silkroad "repro"
	"repro/internal/netproto"
)

const (
	numVIPs  = 64
	poolSize = 16
	batchLen = 64 // the tunnel's read batch; the saturation phase's batch
	dipPort  = 8080

	// pktSlot is the virtual time one packet occupies: the offered-load
	// schedule the switch's insertion CPU, learning filter and update state
	// machine run against. It is never reported.
	pktSlot = 2 * silkroad.Microsecond
	// primeSlot spaces set-up's priming packets at the insertion CPU's pace
	// (200K/s), so the insert queue stays short while the table fills.
	primeSlot = 5 * silkroad.Microsecond
)

// spec is one workload: who is resident, who comes and goes, and how often
// a DIP pool changes. Populations are at -scale 1.
type spec struct {
	name string
	why  string
	// resident connections are primed in set-up and never end.
	resident int
	// tableN provisions the switch: silkroad.Defaults(tableN).
	tableN int
	// shortPool is the number of five-tuples short connections draw from,
	// in order, wrapping; 0 means the workload has none. A short connection
	// is four packets: SYN, ACK, ACK, FIN+ACK, then EndConnection.
	shortPool int
	// quads is how many short connections open in even and in odd batches
	// (each contributes one packet of each kind to the batch); the rest of
	// the 64 packets belong to resident connections.
	quads [2]int
	// lifetime is the virtual time from a short connection's SYN to its FIN.
	lifetime silkroad.Duration
	// updateEvery is the number of packets between DIP-pool updates; 0
	// means none.
	updateEvery int
	// loneFirstOnly restricts lone-latency samples to SYN packets.
	loneFirstOnly bool
	// nominalPPS is what this host forwards per wall second on the workload.
	// It only converts -seconds into the fixed packet count of a run.
	nominalPPS float64
	// chunkPackets is the fixed work of one timed chunk of the saturation
	// phase: some 20 ms in process, and 90 ms on the tunnel, where every
	// chunk ends by draining its window.
	chunkPackets int
	// loneSamples is the lone phase's sample count.
	loneSamples int
	tunnel      bool
}

var specs = []*spec{
	{
		name: "established",
		why: "1M resident connections, ACK-only minimum-size TCP, pure ConnTable hits: the steady state the ASIC serves at line rate; " +
			"parse, hashing, cuckoo lookup and rewrite do the work and the insert path does none",
		resident: 1_000_000, tableN: 1_000_000,
		nominalPPS: 750_000, chunkPackets: 16_384, loneSamples: 200_000,
	},
	{
		name: "newconn",
		why: "short connections only (SYN, ACK, ACK, FIN, end) over a table held at 0.8 of its provisioned size: every connection pays " +
			"miss, DIP select, learn, drain, cuckoo insert with displacement and delete",
		resident: 400_000, tableN: 500_000, shortPool: 262_144,
		quads: [2]int{16, 16}, lifetime: 100 * silkroad.Millisecond,
		loneFirstOnly: true,
		nominalPPS:    380_000, chunkPackets: 8_192, loneSamples: 200_000,
	},
	{
		name: "poolupdate",
		why: "200K resident connections carry ~90% of packets, short connections ~10%, and one VIP's pool gains or loses a DIP every 1024 packets: " +
			"3-step updates, TransitTable, version reuse and pool-row invalidation beside data-plane reads, PCC checked on every packet",
		resident: 200_000, tableN: 400_000, shortPool: 65_536,
		quads: [2]int{1, 2}, lifetime: 200 * silkroad.Millisecond,
		updateEvery: 1024,
		nominalPPS:  800_000, chunkPackets: 16_384, loneSamples: 200_000,
	},
	{
		name: "tunnel",
		why: "200K connections through real UDP sockets on loopback and silkroad.Tunnel, window of 192 datagrams: the only path where " +
			"syscalls, deadlines and batching, not the pipeline, set the numbers",
		resident: 200_000, tableN: 400_000,
		nominalPPS: 135_000, chunkPackets: 12_288, loneSamples: 5_000,
		tunnel: true,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// scaled returns a copy of sp with its populations shrunk by scale (the
// -scale flag: tests and smoke runs). Packet counts shrink with it in plan.
func (sp *spec) scaled(scale float64) *spec {
	if scale == 1 {
		return sp
	}
	c := *sp
	shrink := func(n, min int) int {
		if n == 0 {
			return 0
		}
		if n = int(float64(n) * scale); n < min {
			n = min
		}
		return n
	}
	c.resident = shrink(sp.resident, 4*batchLen)
	c.tableN = shrink(sp.tableN, 8*batchLen)
	c.loneSamples = shrink(sp.loneSamples, 200)
	if sp.shortPool > 0 {
		// Lifetimes stay (a connection must outlive its own installation),
		// so as many short connections are open at once as at full size: the
		// pool must outlast them and the table hold them.
		c.shortPool = shrink(sp.shortPool, 2*sp.liveQuads()+batchLen)
		c.tableN = max(c.tableN, c.resident+2*sp.liveQuads())
	}
	return &c
}

// liveQuads is how many short connections are open at once: the number
// opened during one lifetime of virtual time.
func (sp *spec) liveQuads() int {
	perTwoBatches := sp.quads[0] + sp.quads[1]
	twoBatches := silkroad.Duration(2*batchLen) * pktSlot
	return int(sp.lifetime) * perTwoBatches / int(twoBatches)
}

// traffic is a workload's generated input: the VIPs and pools, one
// five-tuple per connection and every packet it will ever send,
// pre-marshalled. Connection ids number the resident connections first,
// then the short-connection tuples. Packet ids number one ACK per resident
// connection, then four packets (SYN, ACK, ACK, FIN+ACK) per short tuple.
type traffic struct {
	vips    []silkroad.VIP
	pools   [][]silkroad.DIP // the 16-DIP pool of each VIP
	pools17 [][]silkroad.DIP // the same plus extra[v]
	extra   []silkroad.DIP

	resident int
	tuples   []netproto.FiveTuple // by connection id
	vipOf    []uint8              // by connection id
	pktLen   int
	pkts     []byte // packet id p occupies pkts[p*pktLen : (p+1)*pktLen]
}

const (
	kindSYN = iota
	kindACK1
	kindACK2
	kindFIN
)

// packet returns packet p's bytes.
func (tr *traffic) packet(p uint32) []byte {
	off := int(p) * tr.pktLen
	return tr.pkts[off : off+tr.pktLen : off+tr.pktLen]
}

// residentIDs lists every resident connection's packet once, in order:
// what set-up primes the table with.
func (tr *traffic) residentIDs() []uint32 {
	ids := make([]uint32, tr.resident)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// connOf maps a packet id to its connection id.
func (tr *traffic) connOf(p uint32) uint32 {
	if r := uint32(tr.resident); p >= r {
		return r + (p-r)>>2
	}
	return p
}

// isFIN reports whether packet p closes a short connection.
func (tr *traffic) isFIN(p uint32) bool {
	r := uint32(tr.resident)
	return p >= r && (p-r)&3 == kindFIN
}

// isSYN reports whether packet p opens a short connection.
func (tr *traffic) isSYN(p uint32) bool {
	r := uint32(tr.resident)
	return p >= r && (p-r)&3 == kindSYN
}

// shortPacket is the packet id of the given kind for short tuple k.
func (tr *traffic) shortPacket(k, kind int) uint32 {
	return uint32(tr.resident + 4*k + kind)
}

// generate builds the workload's traffic from seed: same seed, same bytes.
// Connections are spread uniformly over the VIPs in a seeded random order,
// so the data plane's one-entry VIP cache and per-VIP row cache see the miss
// rates a real mix gives them. dips overrides the DIP pools (the tunnel
// workload points every VIP at its loopback sink); payload is the TCP
// payload length.
func generate(sp *spec, seed int64, dips []silkroad.DIP, payload int) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	tr := &traffic{resident: sp.resident, pktLen: 40 + payload}
	for v := 0; v < numVIPs; v++ {
		tr.vips = append(tr.vips, silkroad.VIP{
			Addr: netip.AddrFrom4([4]byte{20, 0, byte(v >> 8), byte(v)}), Port: 80, Proto: silkroad.TCP,
		})
		pool := dips
		if pool == nil {
			for d := 0; d < poolSize; d++ {
				pool = append(pool, netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(v), 0, byte(d + 1)}), dipPort))
			}
		}
		extra := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(v), 1, 1}), dipPort)
		tr.pools = append(tr.pools, pool)
		tr.extra = append(tr.extra, extra)
		tr.pools17 = append(tr.pools17, append(append([]silkroad.DIP(nil), pool...), extra))
	}

	conns := sp.resident + sp.shortPool
	tr.tuples = make([]netproto.FiveTuple, conns)
	tr.vipOf = make([]uint8, conns)
	tr.pkts = make([]byte, (sp.resident+4*sp.shortPool)*tr.pktLen)
	body := make([]byte, payload)
	seen := make(map[uint64]struct{}, conns)
	marshal := func(p uint32, pkt *netproto.Packet) error {
		dst := tr.packet(p)
		out, err := pkt.Marshal(dst[:0])
		if err != nil {
			return fmt.Errorf("marshal packet %d: %w", p, err)
		}
		if len(out) != tr.pktLen || &out[0] != &dst[0] {
			return fmt.Errorf("packet %d marshalled to %d bytes, want %d in place", p, len(out), tr.pktLen)
		}
		return nil
	}
	for c := 0; c < conns; c++ {
		var x uint64
		for {
			// One draw: 32 bits of client address (first octet folded into
			// 1..223), 16 of port, 6 of VIP. seen keys on the folded value.
			x = rng.Uint64() & (1<<54 - 1)
			octet := (x>>24)&0xff%223 + 1
			x = x&^(0xff<<24) | octet<<24
			if _, dup := seen[x]; !dup {
				seen[x] = struct{}{}
				break
			}
		}
		v := int(x >> 48)
		t := netproto.FiveTuple{
			Src:     netip.AddrFrom4([4]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)}),
			Dst:     tr.vips[v].Addr,
			SrcPort: uint16(x >> 32), DstPort: 80, Proto: netproto.ProtoTCP,
		}
		tr.tuples[c], tr.vipOf[c] = t, uint8(v)
		// Seq carries the connection id: the tunnel's sink reads it back.
		pkt := netproto.Packet{Tuple: t, Seq: uint32(c), Payload: body}
		if c < sp.resident {
			pkt.TCPFlags = netproto.FlagACK
			if err := marshal(uint32(c), &pkt); err != nil {
				return nil, err
			}
			continue
		}
		k := c - sp.resident
		for kind, flags := range [4]uint8{netproto.FlagSYN, netproto.FlagACK, netproto.FlagACK, netproto.FlagFIN | netproto.FlagACK} {
			pkt.TCPFlags = flags
			if err := marshal(tr.shortPacket(k, kind), &pkt); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}

// schedule turns a workload into its packet order: which packet ids make up
// each batch. It is a pure function of the spec and its own counters, so a
// run's packet sequence is fixed before the first packet is sent.
type schedule struct {
	sp      *spec
	tr      *traffic
	nextRes int // next resident connection, cyclic
	quad    int // short connections opened so far
	batch   int
	offs    [4]int // how many quads each packet kind trails the SYN by
}

func newSchedule(sp *spec, tr *traffic) *schedule {
	live := sp.liveQuads()
	return &schedule{sp: sp, tr: tr, offs: [4]int{0, live / 3, 2 * live / 3, live}}
}

// fill appends the packet ids of the next n batches to ids[:0].
func (s *schedule) fill(ids []uint32, n int) []uint32 {
	ids = ids[:0]
	resident := func() uint32 {
		p := uint32(s.nextRes)
		if s.nextRes++; s.nextRes == s.sp.resident {
			s.nextRes = 0
		}
		return p
	}
	for b := 0; b < n; b++ {
		quads := s.sp.quads[s.batch&1]
		s.batch++
		for j := 0; j < batchLen-4*quads; j++ {
			ids = append(ids, resident())
		}
		for q := 0; q < quads; q++ {
			for kind, off := range s.offs {
				// A connection that would have opened before the run began
				// has no SYN behind it: a resident packet takes its place.
				if k := s.quad - off; k >= 0 {
					ids = append(ids, s.tr.shortPacket(k%s.sp.shortPool, kind))
				} else {
					ids = append(ids, resident())
				}
			}
			s.quad++
		}
	}
	return ids
}

// opened is how many short connections have sent their SYN once the
// first batches batches of the schedule have run.
func (s *schedule) opened(batches int) int {
	return batches/2*(s.sp.quads[0]+s.sp.quads[1]) + batches%2*s.sp.quads[0]
}

// liveShort calls fn with the connection id of every short connection that
// may be open once the schedule's first batches batches have run and the
// next is under way: SYN sent, FIN not yet. It errs on the wide side by up
// to two batches' worth; a connection not open has no expected DIP, which
// is all callers look at.
func (s *schedule) liveShort(batches int, fn func(conn uint32)) {
	if s.sp.shortPool == 0 {
		return
	}
	last := s.opened(batches + 1)
	first := s.opened(batches) - s.offs[kindFIN] - s.sp.quads[0] - s.sp.quads[1]
	if first < 0 {
		first = 0
	}
	for k := first; k < last; k++ {
		fn(uint32(s.sp.resident + k%s.sp.shortPool))
	}
}
