package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	silkroad "repro"
)

const (
	// tunnelWindow is the closed loop's datagrams in flight: three of the
	// tunnel's 64-datagram read batches, so batches fill and its BatchWait
	// timer never paces the run; it fits the default socket buffer.
	tunnelWindow = 192
	// creditBlock is how many datagrams the sink receives before it hands
	// the generator their window credit back in one channel operation.
	creditBlock = 32
	// tsOffset is where the generator writes the send time: the 8-byte TCP
	// payload after the 40 bytes of IPv4 and TCP header.
	tsOffset = 40
)

// lossDeadline is how long a datagram may take before it counts as lost. A
// test shortens it.
var lossDeadline = 100 * time.Millisecond

// tunnelExtras is what only the tunnel workload measures.
type tunnelExtras struct {
	windowRTT  []uint32 // send-to-sink times at full window, ns
	nullPPS    float64  // generator to sink with no tunnel between
	pipelineNs float64  // the same packets through the same switch in process, ns/packet
}

// tunnelRig is the tunnel workload's system under test and its two harness
// threads' state: a switch on the wall clock with Run driving it, a
// silkroad.Tunnel in rewrite mode, a generator socket connected to the
// tunnel's ingress and one sink socket on 0.0.0.0:P that every DIP
// (127.0.0.2:P ... 127.0.0.17:P) delivers to. All of it is loopback.
type tunnelRig struct {
	sp  *spec
	tr  *traffic
	sw  *silkroad.Switch
	tun *silkroad.Tunnel

	sink   *net.UDPConn
	gen    *net.UDPConn
	port   uint16
	stop   context.CancelFunc
	wg     sync.WaitGroup
	runErr [2]error // Switch.Run's and Tunnel.Run's results

	epoch time.Time
	exp   []silkroad.DIP // by connection id, owned by the sink
	rxBuf []byte
	rec   *recorder
	fail  failures
	sent  int64
}

// setUpTunnel generates the traffic, builds the switch and the tunnel,
// starts both and primes every connection through the sockets; the switch's
// insertion CPU (200K/s of wall-clock time) is what the drain waits for.
func setUpTunnel(sp *spec, seed int64) (rig *tunnelRig, seconds float64, heapBase uint64, err error) {
	t0 := time.Now()
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("tunnel: sink socket: %w", err)
	}
	// Room for several windows: the sink is the harness's, and a datagram
	// dropped at its door would be charged to the tunnel.
	if err = sink.SetReadBuffer(1 << 20); err != nil {
		sink.Close()
		return nil, 0, 0, fmt.Errorf("tunnel: sink buffer: %w", err)
	}
	rig = &tunnelRig{sp: sp, sink: sink, epoch: time.Now(), rxBuf: make([]byte, ringSlot)}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	rig.port = sink.LocalAddr().(*net.UDPAddr).AddrPort().Port()
	var dips []silkroad.DIP
	for d := 0; d < poolSize; d++ {
		dips = append(dips, netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, byte(d + 2)}), rig.port))
	}
	if rig.tr, err = generate(sp, seed, dips, 8); err != nil {
		return nil, 0, 0, err
	}
	rig.exp = make([]silkroad.DIP, len(rig.tr.tuples))
	prime := rig.tr.residentIDs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	if rig.sw, err = silkroad.NewSwitch(silkroad.Defaults(sp.tableN)); err != nil {
		return nil, 0, 0, fmt.Errorf("tunnel: new switch: %w", err)
	}
	for v, vip := range rig.tr.vips {
		if err = rig.sw.AddVIP(rig.sw.Now(), vip, rig.tr.pools[v]); err != nil {
			return nil, 0, 0, fmt.Errorf("tunnel: add VIP %v: %w", vip, err)
		}
	}
	if rig.tun, err = silkroad.NewTunnel(silkroad.TunnelConfig{Switch: rig.sw, Listen: "127.0.0.1:0", Mode: silkroad.TunnelRewrite}); err != nil {
		return nil, 0, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rig.stop = cancel
	rig.wg.Add(2)
	go func() { defer rig.wg.Done(); rig.runErr[0] = rig.sw.Run(ctx) }()
	go func() { defer rig.wg.Done(); rig.runErr[1] = rig.tun.Run(ctx) }()
	if rig.gen, err = net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(rig.tun.LocalAddr())); err != nil {
		return nil, 0, 0, fmt.Errorf("tunnel: generator socket: %w", err)
	}

	// A datagram the sink gives up on (the host stalls now and then) leaves
	// its connection unprimed: a second pass offers them all again.
	for pass := 0; ; pass++ {
		rig.pump(rig.gen, prime, tunnelWindow, nil, false)
		if rig.fail.lost == 0 || rig.fail.total() != rig.fail.lost || pass == 2 {
			break
		}
		rig.fail = failures{}
	}
	for deadline := time.Now().Add(30 * time.Second); rig.sw.PendingWork() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			err = fmt.Errorf("tunnel: %d control-plane items still pending 30 s after priming", rig.sw.PendingWork())
			return nil, 0, 0, err
		}
	}
	if rig.fail.total() != 0 {
		err = fmt.Errorf("tunnel: priming failed: %v", rig.fail)
		return nil, 0, 0, err
	}
	return rig, time.Since(t0).Seconds(), ms.HeapAlloc, nil
}

// halt stops the tunnel and the switch's runtime and waits for both.
func (r *tunnelRig) halt() error {
	if r.stop == nil {
		return nil
	}
	r.stop()
	r.stop = nil
	r.wg.Wait()
	return errors.Join(r.runErr[0], r.runErr[1])
}

// close halts the rig and releases its sockets; a nil rig has none.
func (r *tunnelRig) close() {
	if r == nil {
		return
	}
	_ = r.halt() // a Run error after the measurements are taken changes nothing
	for _, c := range []*net.UDPConn{r.gen, r.sink} {
		if c != nil {
			c.Close()
		}
	}
	if r.tun != nil {
		r.tun.Close()
	}
	if r.sw != nil {
		r.sw.Close()
	}
}

// pump sends ids through conn with at most window datagrams in flight and
// returns once the sink has accounted for every one: the generator runs on
// the calling goroutine, the sink on one of its own. The generator stamps
// the send time into the payload and writes; it makes no allocation and no
// channel operation per packet, taking window credit back from the sink a
// block at a time. lat, if not nil, receives each datagram's send-to-sink
// time. bare means conn leads straight to the sink, with no tunnel between.
func (r *tunnelRig) pump(conn *net.UDPConn, ids []uint32, window int, lat *[]uint32, bare bool) {
	block := min(creditBlock, window)
	credits := make(chan int, window) // a token returns at least one credit, so the sink never blocks on it
	var sent atomic.Int64
	done := make(chan struct{})
	start := time.Since(r.epoch)
	go func() {
		defer close(done)
		r.drain(len(ids), block, start, credits, &sent, lat, bare)
	}()
	credit := window
	for _, id := range ids {
		for credit == 0 {
			credit += <-credits
		}
		pkt := r.tr.packet(id)
		binary.LittleEndian.PutUint64(pkt[tsOffset:], uint64(time.Since(r.epoch)))
		// A failed write shows as a datagram the sink never sees.
		_, _ = conn.Write(pkt)
		sent.Add(1)
		credit--
	}
	<-done
	r.sent += int64(len(ids))
}

// drain is the sink: it receives the n datagrams stamped since start, checks
// each one and returns window credit every block of them. A datagram still
// missing after two lossDeadlines of silence in a row is counted lost; if it
// turns up after all, in a later pump, its stamp is older than that pump's
// start and it is passed over, so it cannot stand in for one of that pump's.
func (r *tunnelRig) drain(n, block int, start time.Duration, credits chan<- int, sent *atomic.Int64, lat *[]uint32, bare bool) {
	got, lost, pending := 0, 0, 0
	silent := false // the previous read timed out too
	for got+lost < n {
		if pending == 0 || silent {
			r.sink.SetReadDeadline(time.Now().Add(lossDeadline))
		}
		sz, err := r.sink.Read(r.rxBuf)
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				r.fail.lost += int64(n - got - lost) // socket closed under us
				return
			}
			// When the whole VM is paused past the deadline the timer and the
			// datagrams come due together: only a second silent deadline in
			// a row, with the process certainly running, is a loss.
			if !silent {
				silent = true
				continue
			}
			missing := max(int(sent.Load())-got-lost, 0)
			lost += missing
			r.fail.lost += int64(missing)
			if missing+pending > 0 {
				credits <- missing + pending
			}
			pending = 0
			continue
		}
		silent = false
		now := time.Since(r.epoch)
		pkt := r.rxBuf[:sz]
		if sz != r.tr.pktLen {
			r.fail.rewrite++
			continue
		}
		ts := time.Duration(binary.LittleEndian.Uint64(pkt[tsOffset:]))
		if ts < start {
			continue
		}
		got++
		if lat != nil {
			*lat = append(*lat, uint32(now-ts))
		}
		if r.rec != nil && got&63 == 0 {
			r.rec.record(spanTunnel, int64(ts), int64(now), 1)
		}
		r.check(pkt, got, bare)
		if pending++; pending == block || got+lost == n {
			credits <- pending
			pending = 0
		}
	}
}

// check verifies one delivered packet: its inner destination is a DIP of
// the pool, the same one its connection's first packet got, and (one in
// 256) its checksums, recomputed by the tunnel's rewrite over the stamped
// payload, are valid.
func (r *tunnelRig) check(pkt []byte, got int, bare bool) {
	c := binary.BigEndian.Uint32(pkt[24:]) // TCP sequence number: the connection id
	if int(c) >= len(r.exp) {
		r.fail.rewrite++
		return
	}
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte(pkt[16:20])), binary.BigEndian.Uint16(pkt[22:]))
	if !bare {
		if pkt[16] != 127 || dst.Port() != r.port {
			r.fail.verdict++
			return
		}
		if got&255 == 0 && !checksumsValid(pkt) {
			r.fail.rewrite++
		}
	}
	r.fail.consistent(r.exp, c, dst)
}

// runChunk pumps the next n resident packets at full window and times them.
func (r *tunnelRig) runChunk(ids []uint32, lat *[]uint32) chunkTime {
	if r.rec != nil {
		r.rec.open("chunk", r.sent, len(ids))
	}
	cpu0, t0 := cpuTime(), time.Now()
	r.pump(r.gen, ids, tunnelWindow, lat, false)
	c := chunkTime{packets: int64(len(ids)), wall: time.Since(t0), cpu: cpuTime() - cpu0, traced: r.rec != nil}
	r.rec.closeBatch()
	return c
}

// runTunnel runs the tunnel workload; the phases are runInProcess's, with
// the sockets in place of the direct calls.
func runTunnel(sp *spec, opt options) (*measured, error) {
	chunks, batches := plan(sp, opt)
	per := batches * batchLen
	m := newMeasured(sp, opt, chunks)
	m.tun = &tunnelExtras{windowRTT: make([]uint32, 0, per*chunks)}
	// The schedule: resident connections in order, round and round.
	ids := make([]uint32, per)
	next := 0
	fill := func(n int) []uint32 {
		for i := range ids[:n] {
			ids[i] = uint32(next)
			if next++; next == sp.resident {
				next = 0
			}
		}
		return ids[:n]
	}
	loneBuf := make([]uint32, 0, per)

	var rig *tunnelRig
	defer func() { rig.close() }()
	for i := 0; i < setupRuns; i++ {
		rig.close() // the previous set-up is garbage before the next heap baseline
		rig = nil
		var secs float64
		var err error
		if rig, secs, m.heapBase, err = setUpTunnel(sp, opt.seed); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, secs)
	}
	if opt.trace {
		m.rec = &recorder{epoch: rig.epoch}
	}

	// The warm-up is inside the accounting here, unlike in process: a
	// datagram the sink gave up on while warming up may still reach the
	// tunnel later, and only counts taken around both reconcile.
	rig.fail, rig.sent = failures{}, 0
	m.before = takeSnapshot(rig.sw, rig.tun)
	for i := 0; i < int(warmShare*float64(chunks)); i++ {
		rig.runChunk(fill(per), nil)
	}
	t0 := time.Now()
	for c := 0; c < chunks; c++ {
		if c%2 == 1 {
			rig.rec = m.rec
		}
		m.chunks = append(m.chunks, rig.runChunk(fill(per), &m.tun.windowRTT))
		rig.rec = nil
		// A slice of the lone phase: one datagram in flight.
		loneBuf = loneBuf[:0]
		rig.pump(rig.gen, fill(min((sp.loneSamples+chunks-1)/chunks, per)), 1, &loneBuf, false)
		m.addLone(loneBuf)
	}
	m.wall = time.Since(t0)
	m.after = takeSnapshot(rig.sw, rig.tun)
	m.load = rig.sw.Dataplane().ConnTable().Occupancy()
	m.attempted, m.fail = rig.sent, rig.fail
	if rx := int64(m.after.tun.RxPackets - m.before.tun.RxPackets); rx > rig.sent || rx < rig.sent-rig.fail.lost {
		m.problem("sent %d datagrams, %d of them lost, but the tunnel received %d", rig.sent, rig.fail.lost, rx)
	}
	// The sink cannot read the insert queue under the running switch; the
	// saturation phase inserts nothing, and if it ever did, the switch's own
	// high-water mark, set-up included, is the honest upper bound.
	if cp0, cp1 := m.before.st.Controlplane, m.after.st.Controlplane; cp1.Inserted != cp0.Inserted {
		m.queueMax = cp1.MaxInsertQueue
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.heapLive = ms.HeapAlloc
	st := rig.sw.Stats()
	m.conns, m.sram = st.Connections, st.MemoryBytes
	if err := rig.halt(); err != nil {
		return nil, fmt.Errorf("tunnel: %w", err)
	}
	// Read once the loop has stopped: it counts a datagram forwarded only
	// after the write that delivers it returns.
	if ts := rig.tun.Stats(); ts.Forwarded+ts.Dropped+ts.TxErrors+ts.Undecodable != ts.RxPackets {
		m.problem("tunnel counters do not reconcile: forwarded %d + dropped %d + tx errors %d + undecodable %d != received %d",
			ts.Forwarded, ts.Dropped, ts.TxErrors, ts.Undecodable, ts.RxPackets)
	}
	if !opt.trace {
		return m, nil
	}

	// What the harness alone sustains: generator straight to the sink.
	bare, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 2), Port: int(rig.port)})
	if err != nil {
		return nil, fmt.Errorf("tunnel: bare loopback socket: %w", err)
	}
	defer bare.Close()
	clear(rig.exp)
	var nullPPS []float64
	for i := 0; i < nullChunks; i++ {
		t0 := time.Now()
		rig.pump(bare, fill(per), tunnelWindow, nil, true)
		nullPPS = append(nullPPS, float64(per)/time.Since(t0).Seconds())
	}
	m.tun.nullPPS = quietRate(nullPPS)

	// The same packets through the same switch by direct calls: the share
	// of the tunnel's time per packet that is the pipeline's.
	h := newHarness(sp, rig.tr, per)
	h.sw, h.sys = rig.sw, realSystem{rig.sw}
	var ns []float64
	for i := 0; i < nullChunks; i++ {
		c := h.runChunk(per / batchLen)
		ns = append(ns, float64(c.wall)/float64(c.packets))
	}
	m.tun.pipelineNs = quiet(ns)
	if h.fail.total() != 0 {
		m.problem("in-process pass over the tunnel's switch failed: %v", h.fail)
	}
	m.lg = takeLedger(h)
	if m.tracePath, err = m.rec.write(opt.outDir, sp.name, opt.seed); err != nil {
		return nil, err
	}
	return m, nil
}
