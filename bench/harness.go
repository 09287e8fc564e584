package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	silkroad "repro"
	"repro/internal/netproto"
)

// system is every call the harness makes inside a timed region. realSystem
// passes them to the switch; nullSystem answers them itself, which leaves
// the harness's own cost; the sensitivity self-test wraps realSystem with
// an injected delay.
type system interface {
	Now() silkroad.Time
	AdvanceTo(now silkroad.Time)
	// Parse parses bufs[i] into frames[i] and returns how many failed.
	Parse(bufs [][]byte, frames []netproto.Frame) int
	Process(now silkroad.Time, frames []netproto.Frame, results []silkroad.Result)
	// Rewrite applies every forward verdict to its frame, as the tunnel's
	// transmit side does, and returns how many rewrites failed.
	Rewrite(frames []netproto.Frame, results []silkroad.Result) int
	EndConnection(now silkroad.Time, t netproto.FiveTuple)
	UpdatePool(now silkroad.Time, vip silkroad.VIP, pool []silkroad.DIP) error
}

type realSystem struct{ sw *silkroad.Switch }

func (s realSystem) Now() silkroad.Time          { return s.sw.Now() }
func (s realSystem) AdvanceTo(now silkroad.Time) { s.sw.AdvanceTo(now) }

func (s realSystem) Parse(bufs [][]byte, frames []netproto.Frame) int {
	bad := 0
	for i := range bufs {
		if netproto.ParseFrame(bufs[i], &frames[i]) != nil {
			bad++
		}
	}
	return bad
}

func (s realSystem) Process(now silkroad.Time, frames []netproto.Frame, results []silkroad.Result) {
	s.sw.ProcessFramesInto(now, frames, results)
}

func (s realSystem) Rewrite(frames []netproto.Frame, results []silkroad.Result) int {
	bad := 0
	for i := range frames {
		if results[i].Verdict == silkroad.VerdictForward && frames[i].RewriteDst(results[i].DIP) != nil {
			bad++
		}
	}
	return bad
}

func (s realSystem) EndConnection(now silkroad.Time, t netproto.FiveTuple) {
	s.sw.EndConnection(now, t)
}

func (s realSystem) UpdatePool(now silkroad.Time, vip silkroad.VIP, pool []silkroad.DIP) error {
	return s.sw.UpdatePool(now, vip, pool)
}

// nullSystem does nothing: every packet is "forwarded" to the zero DIP.
type nullSystem struct{ now silkroad.Time }

func (s *nullSystem) Now() silkroad.Time                   { return s.now }
func (s *nullSystem) AdvanceTo(now silkroad.Time)          { s.now = now }
func (s *nullSystem) Parse([][]byte, []netproto.Frame) int { return 0 }
func (s *nullSystem) Process(_ silkroad.Time, _ []netproto.Frame, results []silkroad.Result) {
	clear(results)
}
func (s *nullSystem) Rewrite([]netproto.Frame, []silkroad.Result) int              { return 0 }
func (s *nullSystem) EndConnection(silkroad.Time, netproto.FiveTuple)              {}
func (s *nullSystem) UpdatePool(silkroad.Time, silkroad.VIP, []silkroad.DIP) error { return nil }

// failures counts failed operations by kind.
type failures struct {
	verdict int64 // packet not forwarded
	pcc     int64 // forwarded to another DIP than the connection's first packet
	rewrite int64 // rewritten frame has a wrong destination or checksum
	parse   int64 // the switch could not parse a generated packet, or rewrite it
	update  int64 // UpdatePool returned an error
	lost    int64 // tunnel: datagram not delivered within the deadline
}

// consistent is the per-connection-consistency check: connection c's first
// packet since it began sets exp[c]; a later one forwarded elsewhere is a
// violation.
func (f *failures) consistent(exp []silkroad.DIP, c uint32, dip silkroad.DIP) {
	if e := exp[c]; e != dip {
		if e.IsValid() {
			f.pcc++
		} else {
			exp[c] = dip
		}
	}
}

func (f failures) total() int64 {
	return f.verdict + f.pcc + f.rewrite + f.parse + f.update + f.lost
}

func (f failures) String() string {
	return fmt.Sprintf("verdict=%d pcc=%d rewrite=%d parse=%d update=%d lost=%d",
		f.verdict, f.pcc, f.rewrite, f.parse, f.update, f.lost)
}

// ringSlot is the size of one RX-ring buffer.
const ringSlot = 2048

// harness drives one in-process workload: it owns the traffic, the RX ring
// a batch is copied into, the expected DIP of every connection, and the
// virtual time the schedule has reached.
type harness struct {
	sp    *spec
	tr    *traffic
	sys   system
	sw    *silkroad.Switch
	sched *schedule

	now       silkroad.Time     // virtual time of the current batch
	slot      silkroad.Duration // virtual time per packet
	priming   bool              // set-up is filling the table: no AdvanceTo, no pool updates
	pkts      int64             // packets offered
	schedPkts int64             // of those, packets drawn from the schedule
	batchNo   int64
	updates   int
	queueMax  int // deepest insert queue seen at a sampled batch

	// exp[c] is the DIP connection c's first packet was forwarded to; the
	// zero DIP until then and again after the connection ends.
	exp     []silkroad.DIP
	ring    [][]byte
	frames  []netproto.Frame
	results []silkroad.Result
	ids     []uint32
	scratch netproto.Frame // re-parse target of the sampled rewrite check

	rec   *recorder // nil when the current phase is not traced
	epoch time.Time
	// lone collects the lone phase's per-packet latencies, in nanoseconds;
	// nil outside the lone phase. loneBuf is its storage, allocated up front.
	lone, loneBuf []uint32

	fail failures
}

func newHarness(sp *spec, tr *traffic, idCap int) *harness {
	h := &harness{
		sp: sp, tr: tr, sched: newSchedule(sp, tr), slot: pktSlot,
		exp:     make([]silkroad.DIP, len(tr.tuples)),
		ring:    make([][]byte, batchLen),
		frames:  make([]netproto.Frame, batchLen),
		results: make([]silkroad.Result, batchLen),
		ids:     make([]uint32, 0, idCap),
		loneBuf: make([]uint32, 0, sp.loneSamples+batchLen),
		epoch:   time.Now(),
	}
	store := make([]byte, batchLen*ringSlot)
	for i := range h.ring {
		h.ring[i] = store[i*ringSlot : i*ringSlot+tr.pktLen]
	}
	return h
}

// run offers ids to the system in batches of size, in order. This is the
// timed region of every in-process phase: per batch it steps virtual time,
// applies a pool update if one is due, copies the batch's bytes into the RX
// ring and makes the three calls the tunnel makes per batch; then it checks
// every verdict. A trailing partial batch is not offered.
func (h *harness) run(ids []uint32, size int) {
	frames, results := h.frames[:size], h.results[:size]
	step := silkroad.Duration(size) * h.slot
	for off := 0; off+size <= len(ids); off += size {
		batch := ids[off : off+size]
		h.now = h.now.Add(step)
		h.rec.openBatch(h.batchNo, size)
		h.batchNo++
		now := h.now
		if !h.priming {
			if h.sp.updateEvery > 0 && h.schedPkts%int64(h.sp.updateEvery) == 0 {
				h.update()
			}
			active := 0
			if h.rec.sampling() && h.sw != nil {
				// Between the previous batch's learns and this batch's
				// insertions is where the insert queue is deepest.
				cp := h.sw.Controlplane()
				active, h.queueMax = cp.ActiveUpdates(), max(h.queueMax, cp.QueueDepth())
				h.rec.skip()
			}
			h.sys.AdvanceTo(h.now)
			h.rec.lap(spanAdvance, size, active)
			now = h.sys.Now() // what the tunnel passes: the switch's clock
		}

		for j, p := range batch {
			copy(h.ring[j], h.tr.packet(p))
		}
		h.rec.skip()
		var t0 time.Duration
		if h.lone != nil {
			t0 = time.Since(h.epoch)
		}
		bad := h.sys.Parse(h.ring[:size], frames)
		h.rec.lap(spanParse, size, 0)
		h.sys.Process(now, frames, results)
		h.rec.lap(spanProcess, size, 0)
		bad += h.sys.Rewrite(frames, results)
		h.rec.lap(spanRewrite, size, 0)
		if h.lone != nil && (!h.sp.loneFirstOnly || h.tr.isSYN(batch[0])) {
			h.lone = append(h.lone, uint32(time.Since(h.epoch)-t0))
		}
		h.fail.parse += int64(bad)
		h.settle(batch)
		h.pkts += int64(size)
		if !h.priming {
			h.schedPkts += int64(size)
		}
		h.rec.closeBatch()
	}
}

// settle checks a processed batch: every packet forwarded, every connection
// still on the DIP its first packet got (per-connection consistency), one
// rewritten frame in 256 re-parsed and its checksums verified. A FIN ends
// its connection.
func (h *harness) settle(batch []uint32) {
	for j, p := range batch {
		res := &h.results[j]
		if res.Verdict != silkroad.VerdictForward {
			h.fail.verdict++
			continue
		}
		c := h.tr.connOf(p)
		h.fail.consistent(h.exp, c, res.DIP)
		if (h.pkts+int64(j))&255 == 0 && res.DIP.IsValid() && !h.rewrittenRight(h.ring[j], h.tr.packet(p), res.DIP) {
			h.fail.rewrite++
		}
		if h.tr.isFIN(p) {
			h.endConnection(c)
		}
	}
}

func (h *harness) endConnection(c uint32) {
	h.rec.skip()
	h.sys.EndConnection(h.now, h.tr.tuples[c])
	h.rec.lap(spanEndConn, 1, 0)
	h.exp[c] = silkroad.DIP{}
}

// update applies the schedule's next pool update. Updates come in pairs: the
// even ones give the VIPs, in rotation, their extra DIP; each odd one takes
// it from the VIP half a rotation on, which has had it for 64 updates. So
// every pool breathes 16 <-> 17 and any two updates in a row are one of each
// kind. Connections on a removed DIP end there and then, as a dead backend's
// would.
func (h *harness) update() {
	u := h.updates
	h.updates++
	remove := u%2 == 1
	v := u / 2 % numVIPs
	pool := h.tr.pools17[v]
	if remove {
		if u < numVIPs {
			return // its VIP has not gained the DIP yet
		}
		v = (v + numVIPs/2) % numVIPs
		pool = h.tr.pools[v]
	}
	var t0 int64
	if h.rec != nil {
		t0 = h.rec.now()
	}
	err := h.sys.UpdatePool(h.now, h.tr.vips[v], pool)
	if h.rec != nil {
		h.rec.record(spanUpdate, t0, h.rec.now(), 0)
	}
	if err != nil {
		h.fail.update++
	}
	if remove {
		gone := h.tr.extra[v]
		h.sched.liveShort(int(h.schedPkts/batchLen), func(c uint32) {
			if h.exp[c] == gone {
				h.endConnection(c)
			}
		})
	}
}

// rewrittenRight reports whether out is in rewritten to dip and nothing
// else: destination address and port replaced, every other header field
// kept, IPv4 header and TCP checksums valid. It is the harness's own
// reading of the bytes plus a re-parse by the system's parser.
func (h *harness) rewrittenRight(out, in []byte, dip silkroad.DIP) bool {
	if len(out) != len(in) || len(out) < 40 {
		return false
	}
	addr := dip.Addr().As4()
	same := bytes.Equal(out[:10], in[:10]) && bytes.Equal(out[12:16], in[12:16]) && // IP header but checksum, destination
		bytes.Equal(out[20:22], in[20:22]) && bytes.Equal(out[24:36], in[24:36]) && // TCP header but port, checksum
		bytes.Equal(out[38:], in[38:])
	if !same || !bytes.Equal(out[16:20], addr[:]) || binary.BigEndian.Uint16(out[22:]) != dip.Port() {
		return false
	}
	if !checksumsValid(out) || netproto.ParseFrame(out, &h.scratch) != nil {
		return false
	}
	t := h.scratch.Tuple
	return t.Dst == dip.Addr() && t.DstPort == dip.Port()
}

// checksumsValid recomputes the IPv4 header checksum and the TCP checksum
// of pkt (20-byte IP header, no options) by the harness's own arithmetic.
func checksumsValid(pkt []byte) bool {
	pseudo := onesSum(pkt[12:20], uint32(netproto.ProtoTCP)+uint32(len(pkt)-20))
	return onesSum(pkt[:20], 0) == 0xffff && onesSum(pkt[20:], pseudo) == 0xffff
}

// onesSum is the 16-bit ones-complement sum of data (even length) added to
// initial; a block whose checksum field is right sums to 0xffff.
func onesSum(data []byte, initial uint32) uint32 {
	sum := initial
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum
}

// setupResult is what one set-up produced and what it cost.
type setupResult struct {
	h        *harness
	seconds  float64 // wall clock: generation, construction, priming, drain
	heapBase uint64  // live heap just before NewSwitch
}

// setUp generates the workload's traffic, builds the switch, primes the
// resident connections through the data path at the insertion CPU's pace
// and drains the control plane. Every harness array is allocated before the
// heap baseline is read, so what the run adds to the heap afterwards is the
// switch's. wrap lets a test put a slowed system around the real one.
func setUp(sp *spec, seed int64, pipes, idCap int, wrap func(realSystem) system) (*setupResult, error) {
	t0 := time.Now()
	tr, err := generate(sp, seed, nil, 0)
	if err != nil {
		return nil, err
	}
	h := newHarness(sp, tr, idCap)
	prime := tr.residentIDs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	cfg := silkroad.Defaults(sp.tableN)
	cfg.Pipes = pipes
	cfg.Clock = silkroad.NewManualClock(0)
	sw, err := silkroad.NewSwitch(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: new switch: %w", sp.name, err)
	}
	for v, vip := range tr.vips {
		if err := sw.AddVIP(0, vip, tr.pools[v]); err != nil {
			sw.Close()
			return nil, fmt.Errorf("%s: add VIP %v: %w", sp.name, vip, err)
		}
	}
	h.sw = sw
	h.sys = realSystem{sw}
	if wrap != nil {
		h.sys = wrap(realSystem{sw})
	}
	// Priming passes the schedule's time straight to ProcessFramesInto and
	// leaves the switch's runtime alone until the drain: the poll each frame
	// makes installs what is due in bulk, where AdvanceTo would step the
	// scheduler once per insertion and triple the set-up time.
	h.slot, h.priming = primeSlot, true
	h.run(prime, batchLen)
	h.now = h.now.Add(50 * silkroad.Millisecond)
	h.sys.AdvanceTo(h.now)
	if n := sw.PendingWork(); n != 0 {
		sw.Close()
		return nil, fmt.Errorf("%s: %d control-plane items still pending after the set-up drain", sp.name, n)
	}
	h.slot, h.priming = pktSlot, false
	return &setupResult{h: h, seconds: time.Since(t0).Seconds(), heapBase: ms.HeapAlloc}, nil
}
