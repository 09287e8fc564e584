package silkroad

// The UDP-encap tunnel: the switch's first real I/O loop. Each UDP
// datagram's payload is one raw IPv4/IPv6 packet (the encapsulation a ToR
// would feed a software LB). The loop blocks only while the ingress socket
// is empty and never waits once it is not: it takes whatever is already
// queued (up to BatchSize) into reusable frame buffers, parses each once,
// pushes the batch through ProcessFramesInto, and transmits it to the chosen
// DIPs — rewritten in place (DNAT) or IP-in-IP encapsulated (DSR), both
// straight off the frame's cached offsets. Under load the queue refills
// while a batch is in the pipeline, so batches size themselves; a lone
// datagram is a batch of one. The loop is unprivileged (plain UDP sockets,
// no raw-socket capability) and allocation-free in steady state, which is
// what lets CI run a real client → LB → backend path.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/dataplane"
	"repro/internal/netproto"
)

// Tunnel forwarding modes.
const (
	// TunnelRewrite forwards by rewriting the packet's destination to the
	// DIP in place (DNAT); the backend sees its own address.
	TunnelRewrite = "rewrite"
	// TunnelIPIP forwards by IP-in-IP encapsulating toward the DIP; the
	// inner packet keeps the VIP destination (direct server return).
	TunnelIPIP = "ipip"
)

// TunnelConfig parameterizes a Tunnel.
type TunnelConfig struct {
	// Switch is the load balancer the tunnel feeds. Required.
	Switch *Switch
	// Listen is the UDP address receiving encapsulated packets
	// (e.g. ":9000"; ":0" or "127.0.0.1:0" pick a free port).
	Listen string
	// Mode selects the TX action: TunnelRewrite (default) or TunnelIPIP.
	Mode string
	// Self is the outer source address for TunnelIPIP.
	Self netip.Addr
	// BatchSize bounds how many already-queued datagrams one read pass
	// takes before processing (default 64). Bigger batches amortize
	// syscalls and pipe hand-off under load; the loop only ever blocks on
	// an empty socket, so an idle tunnel adds no latency at any size.
	BatchSize int
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// TunnelStats is a snapshot of the tunnel's datagram counters. The loop
// publishes them once per batch, so at every batch boundary (and whenever
// Run has returned) Forwarded + Dropped + TxErrors + Undecodable ==
// RxPackets; RxPackets / RxBatches is the mean batch fill.
type TunnelStats struct {
	RxPackets   uint64 // datagrams received
	RxBytes     uint64 // payload bytes received
	RxBatches   uint64 // read passes that returned datagrams
	Undecodable uint64 // payloads over maxPacket bytes, not parseable, or IPv6 in ipip mode
	Forwarded   uint64 // packets transmitted to a DIP
	Dropped     uint64 // verdict drops (no VIP, meter, empty pool)
	TxErrors    uint64 // packets that could not be encoded or sent
	TxBatches   uint64 // batched sends handed to the egress socket
}

// maxPacket bounds one datagram's payload: a jumbo frame. A longer datagram
// counts as Undecodable and is logged; it is never parsed truncated.
const maxPacket = 9216

// Tunnel is a running UDP-encap forwarding loop over one Switch. Create
// with NewTunnel, drive with Run, stop by cancelling Run's context (or
// Close). Stats may be read concurrently.
type Tunnel struct {
	sw     *Switch
	mode   string
	self   netip.Addr
	batch  int
	maxPkt int
	logf   func(format string, args ...any)

	rx *net.UDPConn // ingress (encapsulated packets in)
	tx *net.UDPConn // egress (forwarded packets out)
	io batchIO      // how batches cross the two sockets

	closeOnce sync.Once

	rxPackets   atomic.Uint64
	rxBytes     atomic.Uint64
	rxBatches   atomic.Uint64
	undecodable atomic.Uint64
	forwarded   atomic.Uint64
	dropped     atomic.Uint64
	txErrors    atomic.Uint64
	txBatches   atomic.Uint64
}

// batchIO is the seam between the forwarding loop and its two sockets. The
// linux build fills it with recvmmsg/sendmmsg (one syscall per batch each
// way); portableIO, compiled everywhere, is used wherever that pair is
// unavailable.
type batchIO interface {
	// recv parks until the ingress socket is readable, then takes what is
	// already queued — at most len(bufs) datagrams, datagram i into bufs[i]
	// with its length in sizes[i] — without waiting for more. It returns
	// either n > 0 or an error; net.ErrClosed once the socket is closed.
	recv(bufs [][]byte, sizes []int) (n int, err error)
	// send transmits pkts[i] to dsts[i] in order and returns how many
	// leading packets went out; consecutive packets to one destination may
	// leave as one segmented message. sent < len(pkts) means packet number
	// sent failed with err; the caller resumes after it.
	send(pkts [][]byte, dsts []netip.AddrPort) (sent int, err error)
}

// NewTunnel binds the tunnel's sockets and prepares its buffers. The
// returned tunnel is not forwarding yet — call Run.
func NewTunnel(cfg TunnelConfig) (*Tunnel, error) {
	if cfg.Switch == nil {
		return nil, errors.New("silkroad: TunnelConfig.Switch is required")
	}
	switch cfg.Mode {
	case "", TunnelRewrite, TunnelIPIP:
	default:
		return nil, fmt.Errorf("silkroad: unknown tunnel mode %q", cfg.Mode)
	}
	if cfg.Mode == TunnelIPIP && !cfg.Self.Is4() {
		return nil, errors.New("silkroad: tunnel mode ipip needs an IPv4 Self address")
	}
	t := &Tunnel{
		sw:     cfg.Switch,
		mode:   cfg.Mode,
		self:   cfg.Self,
		batch:  cfg.BatchSize,
		maxPkt: maxPacket,
		logf:   cfg.Logf,
	}
	if t.mode == "" {
		t.mode = TunnelRewrite
	}
	if t.batch <= 0 {
		t.batch = 64
	}
	if t.logf == nil {
		t.logf = func(string, ...any) {}
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("silkroad: tunnel listen address: %w", err)
	}
	rx, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("silkroad: tunnel listen: %w", err)
	}
	tx, err := net.ListenUDP("udp", nil)
	if err != nil {
		rx.Close()
		return nil, fmt.Errorf("silkroad: tunnel egress socket: %w", err)
	}
	t.rx, t.tx = rx, tx
	if t.io = newMmsgIO(rx, tx, t.batch); t.io == nil {
		t.io = newPortableIO(rx, tx)
	}
	return t, nil
}

// LocalAddr returns the ingress socket's bound address — the address
// clients encapsulate toward.
func (t *Tunnel) LocalAddr() netip.AddrPort {
	return t.rx.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Close releases the tunnel's sockets, unblocking a concurrent Run. Safe
// to call more than once.
func (t *Tunnel) Close() error {
	t.closeOnce.Do(func() {
		t.rx.Close()
		t.tx.Close()
	})
	return nil
}

// Stats returns a snapshot of the tunnel's counters.
func (t *Tunnel) Stats() TunnelStats {
	return TunnelStats{
		RxPackets:   t.rxPackets.Load(),
		RxBytes:     t.rxBytes.Load(),
		RxBatches:   t.rxBatches.Load(),
		Undecodable: t.undecodable.Load(),
		Forwarded:   t.forwarded.Load(),
		Dropped:     t.dropped.Load(),
		TxErrors:    t.txErrors.Load(),
		TxBatches:   t.txBatches.Load(),
	}
}

// Run executes the forwarding loop until ctx is cancelled (or Close is
// called), then returns nil. Packets already read when cancellation lands
// are still processed and transmitted — shutdown is graceful, not abrupt
// — but the tunnel is finished once Run returns (cancellation closes the
// ingress socket); build a new Tunnel to forward again. All buffers are
// allocated here once; the steady-state loop reads, parses, balances and
// transmits without allocating.
func (t *Tunnel) Run(ctx context.Context) error {
	// Cancellation closes the ingress socket: a read parked in the poller
	// and every later one return net.ErrClosed, with no timer involved. The
	// egress socket stays open so the batch in flight still transmits.
	stop := context.AfterFunc(ctx, func() { t.rx.Close() })
	defer stop()

	b := t.newBatch()
	for {
		if err := t.step(b); err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
	}
}

// tunnelBatch is the loop's working set, sized once for BatchSize packets.
type tunnelBatch struct {
	bufs    [][]byte         // RX slots, one datagram each, maxPkt+1 bytes of one arena
	sizes   []int            // datagram lengths of the last read pass
	frames  []netproto.Frame // parsed views into bufs, dense
	results []Result

	pkts [][]byte         // TX gather list: frame data or enc slots
	dsts []netip.AddrPort // the DIP of each gathered packet
	enc  [][]byte         // TunnelIPIP scratch, one slot per packet of the batch

	// The gather list grouped by DIP (byDst), and which packets it has taken.
	grpPkts [][]byte
	grpDsts []netip.AddrPort
	taken   []bool
}

func (t *Tunnel) newBatch() *tunnelBatch {
	b := &tunnelBatch{
		bufs:    make([][]byte, t.batch),
		sizes:   make([]int, t.batch),
		frames:  make([]netproto.Frame, t.batch),
		results: make([]Result, t.batch),
		pkts:    make([][]byte, 0, t.batch),
		dsts:    make([]netip.AddrPort, 0, t.batch),
		grpPkts: make([][]byte, 0, t.batch),
		grpDsts: make([]netip.AddrPort, 0, t.batch),
		taken:   make([]bool, t.batch),
	}
	// One byte past maxPkt is how a longer datagram shows: it fills its
	// slot. With the default 9 217-byte slots the packet heads also fall on
	// different L1 sets, where page-aligned buffers put them all on the same
	// few.
	slot := t.maxPkt + 1
	arena := make([]byte, t.batch*slot)
	for i := range b.bufs {
		b.bufs[i] = arena[i*slot : (i+1)*slot : (i+1)*slot]
	}
	if t.mode == TunnelIPIP {
		b.enc = make([][]byte, t.batch)
	}
	return b
}

// step is one turn of the loop: park until the socket has datagrams, take
// all that are queued, and carry that batch through the switch and out
// before looking at the socket again. Payloads that fill their slot (longer
// than maxPkt, so truncated), do not parse, or are IPv6 in TunnelIPIP mode
// (IP-in-IP carries IPv4 only, so such a packet is neither metered nor
// learned) are counted and skipped, so frames[:n] is dense. Counters are published once per batch
// on each side, the RX ones before the batch is processed.
func (t *Tunnel) step(b *tunnelBatch) error {
	got, err := t.io.recv(b.bufs, b.sizes)
	if err != nil {
		return err
	}
	n, rxBytes := 0, 0
	for i, sz := range b.sizes[:got] {
		rxBytes += sz
		if sz > t.maxPkt {
			t.logf("silkroad: tunnel: datagram over %d B dropped", t.maxPkt)
			continue
		}
		if perr := netproto.ParseFrame(b.bufs[i][:sz], &b.frames[n]); perr != nil {
			t.logf("silkroad: tunnel: undecodable payload (%d B): %v", sz, perr)
			continue
		}
		if t.mode == TunnelIPIP && !b.frames[n].Tuple.Dst.Is4() {
			t.logf("silkroad: tunnel: IPv6 payload dropped: IP-in-IP carries IPv4 only")
			continue
		}
		n++
	}
	t.rxBatches.Add(1)
	t.rxPackets.Add(uint64(got))
	t.rxBytes.Add(uint64(rxBytes))
	t.undecodable.Add(uint64(got - n))
	if n > 0 {
		t.sw.ProcessFramesInto(t.sw.Now(), b.frames[:n], b.results[:n])
		t.transmit(b, n)
	}
	return nil
}

// transmit applies each verdict on the TX side — in-place destination
// rewrite or IP-in-IP encapsulation via the frame's cached offsets — and
// hands all forwards of the batch to the egress socket together, grouped
// by DIP so that each DIP's share can leave as one message. A packet
// counts as forwarded only once the send that delivers it has returned.
func (t *Tunnel) transmit(b *tunnelBatch, n int) {
	var forwarded, dropped, txErrors, txBatches uint64
	pkts, dsts := b.pkts[:0], b.dsts[:0]
	for i := range b.frames[:n] {
		res := &b.results[i]
		if res.Verdict != dataplane.VerdictForward {
			dropped++
			continue
		}
		f := &b.frames[i]
		payload := f.Data
		if t.mode == TunnelIPIP {
			slot := &b.enc[len(pkts)]
			enc, err := netproto.EncapIPIP((*slot)[:0], t.self, res.DIP.Addr(), f.Data)
			if err != nil {
				txErrors++
				t.logf("silkroad: tunnel: encap for %v: %v", res.DIP, err)
				continue
			}
			*slot, payload = enc, enc
		} else if err := f.RewriteDst(res.DIP); err != nil {
			txErrors++
			t.logf("silkroad: tunnel: rewrite for %v: %v", res.DIP, err)
			continue
		}
		pkts, dsts = append(pkts, payload), append(dsts, res.DIP)
	}
	pkts, dsts = b.byDst(pkts, dsts)
	for len(pkts) > 0 {
		sent, err := t.io.send(pkts, dsts)
		txBatches++
		forwarded += uint64(sent)
		if sent == len(pkts) {
			break
		}
		txErrors++
		t.logf("silkroad: tunnel: forward to %v: %v", dsts[sent], err)
		pkts, dsts = pkts[sent+1:], dsts[sent+1:]
	}
	t.forwarded.Add(forwarded)
	t.dropped.Add(dropped)
	t.txErrors.Add(txErrors)
	t.txBatches.Add(txBatches)
}

// byDst returns the gather list grouped by destination: the DIPs in order
// of first appearance, each DIP's packets in arrival order, so every flow
// keeps its order. It compares each DIP against the rest of the list, n
// per DIP, which is far below the cost of the message each DIP becomes.
func (b *tunnelBatch) byDst(pkts [][]byte, dsts []netip.AddrPort) ([][]byte, []netip.AddrPort) {
	gp, gd, taken := b.grpPkts[:0], b.grpDsts[:0], b.taken[:len(pkts)]
	clear(taken)
	for i, d := range dsts {
		if taken[i] {
			continue
		}
		for j := i; j < len(dsts); j++ {
			if !taken[j] && dsts[j] == d {
				taken[j] = true
				gp, gd = append(gp, pkts[j]), append(gd, d)
			}
		}
	}
	return gp, gd
}

// portableIO is the batchIO built on what every platform has. On unix,
// where a socket is a non-blocking descriptor read(2) works on, it parks in
// the runtime poller until the socket is readable and then reads, one
// non-blocking read per datagram, until the queue is empty; elsewhere a
// batch is the one datagram a blocking read returns. Sends are one
// WriteToUDPAddrPort per packet.
type portableIO struct {
	rx, tx *net.UDPConn
	raw    syscall.RawConn // nil where batches are single blocking reads

	// drain is bound once and works through these fields: a closure per
	// call would allocate per batch.
	drainFn func(fd uintptr) bool
	bufs    [][]byte
	sizes   []int
	n       int   // datagrams read by the pass in progress
	rerr    error // what stopped it, other than an empty queue
}

func newPortableIO(rx, tx *net.UDPConn) *portableIO {
	p := &portableIO{rx: rx, tx: tx}
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		// Not unix: RawConn.Read may exist (windows) but hands out no
		// descriptor a non-blocking read(2) can drain.
	default:
		p.raw, _ = rx.SyscallConn() // an error leaves raw nil: blocking reads
	}
	p.drainFn = p.drain
	return p
}

func (p *portableIO) recv(bufs [][]byte, sizes []int) (int, error) {
	if p.raw == nil {
		sz, _, err := p.rx.ReadFromUDPAddrPort(bufs[0])
		// Windows reports a datagram longer than the buffer as an error
		// beside the bytes that fit; the slot is full and step drops it.
		if err != nil && sz < len(bufs[0]) {
			return 0, err
		}
		sizes[0] = sz
		return 1, nil
	}
	p.bufs, p.sizes, p.n, p.rerr = bufs, sizes, 0, nil
	err := p.raw.Read(p.drainFn)
	switch {
	case p.n > 0:
		return p.n, nil // a read error behind these datagrams shows on the next pass
	case p.rerr != nil:
		return 0, &net.OpError{Op: "read", Net: "udp", Err: p.rerr}
	}
	return 0, err // the socket was closed while parked
}

// drain is recv's poller callback: it reads until the queue is empty or
// the batch full, and returns false (park until readable) only when the
// queue was empty from the start.
func (p *portableIO) drain(fd uintptr) bool {
	for p.n < len(p.bufs) {
		sz, err := readFD(syscall.Read, fd, p.bufs[p.n])
		if err == nil {
			p.sizes[p.n] = sz
			p.n++
			continue
		}
		// EAGAIN and EINTR by the errno's own classification: the
		// constants do not exist on every platform this compiles for.
		if ne, ok := err.(net.Error); ok {
			if ne.Timeout() {
				return p.n > 0
			}
			if ne.Temporary() {
				continue
			}
		}
		p.rerr = err
		break
	}
	return true
}

// readFD calls syscall.Read with the descriptor RawConn hands out. The
// parameter is an int on unix and a Handle on windows; inferring its type
// from syscall.Read lets this untagged file compile for both, though only
// unix ever gets here.
func readFD[FD ~int | ~uintptr](read func(FD, []byte) (int, error), fd uintptr, p []byte) (int, error) {
	return read(FD(fd), p)
}

func (p *portableIO) send(pkts [][]byte, dsts []netip.AddrPort) (int, error) {
	for i, pkt := range pkts {
		if _, err := p.tx.WriteToUDPAddrPort(pkt, dsts[i]); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}
