package silkroad

// End-to-end loopback tests of the wire path: a real UDP client sends raw
// TCP-in-UDP packets to a Tunnel, which balances them through the switch
// and forwards to real mock-DIP UDP listeners. Everything is unprivileged
// (plain sockets on 127.0.0.1), so these run in CI under -race.

import (
	"context"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netproto"
)

// mockDIP is one backend: a UDP listener recording, per client connection
// (source port), how many packets it received, plus per-packet header
// checks.
type mockDIP struct {
	addr netip.AddrPort
	conn *net.UDPConn

	mu      sync.Mutex
	byConn  map[uint16]int // client src port -> packets seen here
	badPkts int            // payloads that failed the per-mode header check
}

// startMockDIP binds a UDP listener on 127.0.0.1 and consumes datagrams
// until its socket closes. check validates each payload (per forwarding
// mode) and returns the client source port.
func startMockDIP(t *testing.T, wg *sync.WaitGroup, check func(d *mockDIP, pkt []byte) (uint16, bool)) *mockDIP {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("mock DIP listen: %v", err)
	}
	d := &mockDIP{
		addr:   conn.LocalAddr().(*net.UDPAddr).AddrPort(),
		conn:   conn,
		byConn: make(map[uint16]int),
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 65536)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			src, ok := check(d, buf[:n])
			d.mu.Lock()
			if ok {
				d.byConn[src]++
			} else {
				d.badPkts++
			}
			d.mu.Unlock()
		}
	}()
	return d
}

// rewriteCheck validates a DNAT-forwarded packet: its destination must be
// this very DIP.
func rewriteCheck(d *mockDIP, pkt []byte) (uint16, bool) {
	var f netproto.Frame
	if err := netproto.ParseFrame(pkt, &f); err != nil {
		return 0, false
	}
	if f.Tuple.Dst != d.addr.Addr() || f.Tuple.DstPort != d.addr.Port() {
		return f.Tuple.SrcPort, false
	}
	return f.Tuple.SrcPort, true
}

// eachTunnelIO runs fn once per batch-I/O implementation: the one NewTunnel
// selects on this platform (recvmmsg/sendmmsg on linux) and the portable
// one, which otherwise only runs where the first is unavailable.
func eachTunnelIO(t *testing.T, fn func(t *testing.T, portable bool)) {
	t.Run("native", func(t *testing.T) { fn(t, false) })
	t.Run("portable", func(t *testing.T) { fn(t, true) })
}

// mmsgCounts is what the mmsg implementation has counted for the tunnel
// so far: recvmmsg and sendmmsg calls that moved (or failed) a message, and
// the messages sendmmsg moved; gso is whether a message may carry more than
// one packet.
type mmsgCounts struct {
	recv, send, msgs uint64
	gso              bool
}

// mmsgCounts returns the mmsg implementation's counts; ok is false when the
// tunnel runs on the portable implementation. Where NewTunnel is expected
// to have chosen the mmsg pair with UDP GSO and did not, the test fails.
func (h *tunnelHarness) mmsgCounts(t *testing.T, portable bool) (c mmsgCounts, ok bool) {
	t.Helper()
	want := !portable && runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
	m, isMmsg := h.tun.io.(interface {
		counts() (recvmmsgs, sendmmsgs, messages uint64, gso bool)
	})
	if !isMmsg {
		if want {
			t.Errorf("NewTunnel chose %T on %s/%s, want recvmmsg/sendmmsg", h.tun.io, runtime.GOOS, runtime.GOARCH)
		}
		return c, false
	}
	c.recv, c.send, c.msgs, c.gso = m.counts()
	if want && !c.gso {
		t.Errorf("the tunnel's sendmmsg does not segment on %s/%s, want UDP GSO", runtime.GOOS, runtime.GOARCH)
	}
	return c, true
}

// tunnelHarness bundles one switch+tunnel with its client socket.
type tunnelHarness struct {
	sw     *Switch
	tun    *Tunnel
	client *net.UDPConn
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when Run returned
}

// newTunnelHarness builds the tunnel and its client but does not start the
// forwarding loop: datagrams sent before start queue on the ingress socket.
func newTunnelHarness(t *testing.T, sw *Switch, mode string, portable bool) *tunnelHarness {
	t.Helper()
	tcfg := TunnelConfig{
		Switch: sw,
		Listen: "127.0.0.1:0",
		Mode:   mode,
		Logf:   t.Logf,
	}
	if mode == TunnelIPIP {
		tcfg.Self = netip.MustParseAddr("192.0.2.1")
	}
	tun, err := NewTunnel(tcfg)
	if err != nil {
		t.Fatalf("NewTunnel: %v", err)
	}
	if portable {
		tun.io = newPortableIO(tun.rx, tun.tx)
	}
	client, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(tun.LocalAddr()))
	if err != nil {
		t.Fatalf("client socket: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &tunnelHarness{sw: sw, tun: tun, client: client, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	t.Cleanup(func() {
		cancel()
		client.Close()
		tun.Close()
	})
	return h
}

// start launches the forwarding loop and the switch's runtime; both stop
// when the harness is cancelled, at the latest when the test ends.
func (h *tunnelHarness) start(t *testing.T) {
	go func() {
		defer close(h.done)
		if err := h.tun.Run(h.ctx); err != nil {
			t.Errorf("tunnel Run: %v", err)
		}
	}()
	go h.sw.Run(h.ctx)
	t.Cleanup(func() {
		h.cancel()
		select {
		case <-h.done:
		case <-time.After(5 * time.Second):
			t.Error("tunnel Run did not return after cancellation")
		}
	})
}

// startOnBacklog starts the loop over datagrams the test has already sent,
// so that they are its first batch. Loopback delivers inside the sender's
// write unless the kernel has deferred its softirqs to a thread; there is
// no event to wait on for that case, only time.
func (h *tunnelHarness) startOnBacklog(t *testing.T) {
	time.Sleep(10 * time.Millisecond)
	h.start(t)
}

func startTunnel(t *testing.T, sw *Switch, mode string, portable bool) *tunnelHarness {
	t.Helper()
	h := newTunnelHarness(t, sw, mode, portable)
	h.start(t)
	return h
}

// tcpPacket marshals one TCP packet for the VIP from client source port
// src; the client address takes the VIP's family.
func tcpPacket(t *testing.T, vip VIP, src uint16, flags uint8) []byte {
	t.Helper()
	return tcpPacketWith(t, vip, src, flags, []byte("payload"))
}

// tcpPacketWith is tcpPacket carrying payload; over IPv4 the packet is 40
// bytes longer than it.
func tcpPacketWith(t *testing.T, vip VIP, src uint16, flags uint8, payload []byte) []byte {
	t.Helper()
	client := netip.MustParseAddr("10.1.0.1")
	if vip.Addr.Is6() {
		client = netip.MustParseAddr("2001:db8:1::1")
	}
	p := Packet{
		Tuple: FiveTuple{
			Src:     client,
			Dst:     vip.Addr,
			SrcPort: src,
			DstPort: vip.Port,
			Proto:   TCP,
		},
		TCPFlags: flags,
		Payload:  payload,
	}
	raw, err := p.Marshal(nil)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// send writes one TCP packet for the VIP to the tunnel. Test goroutine only.
func (h *tunnelHarness) send(t *testing.T, vip VIP, src uint16, flags uint8) {
	t.Helper()
	if _, err := h.client.Write(tcpPacket(t, vip, src, flags)); err != nil {
		t.Fatalf("client send: %v", err)
	}
}

// reconciled fails the test unless every received datagram is accounted
// for; call it once Run has returned or the tunnel is known to be idle.
func (h *tunnelHarness) reconciled(t *testing.T) TunnelStats {
	t.Helper()
	st := h.tun.Stats()
	if st.Forwarded+st.Dropped+st.TxErrors+st.Undecodable != st.RxPackets {
		t.Errorf("tunnel counters do not reconcile: %+v", st)
	}
	return st
}

// waitForwarded polls until the tunnel has forwarded, dropped or failed to
// send at least want packets (UDP on loopback does not reorder or drop in practice, but the tunnel is
// asynchronous, so counts need a grace period).
func (h *tunnelHarness) waitForwarded(t *testing.T, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := h.tun.Stats()
		if st.Forwarded+st.Dropped+st.TxErrors >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: tunnel has accounted for %+v, want >= %d packets", h.tun.Stats(), want)
}

// waitReceived polls until the mock DIPs have drained want packets off
// their sockets. The tunnel's Forwarded counter runs ahead of the backend
// goroutines (a send is counted when written, not when the listener reads
// it), so count assertions must wait for the consumers, especially when
// the whole test suite is loading the host.
func waitReceived(t *testing.T, dips []*mockDIP, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, d := range dips {
			d.mu.Lock()
			for _, n := range d.byConn {
				got += n
			}
			got += d.badPkts
			d.mu.Unlock()
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: backends drained %d packets, want %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTunnelLoopbackPCC is the end-to-end wire test: client -> tunnel ->
// mock DIPs over real UDP sockets, with a DIP pool update landing in the
// middle of traffic. Per-connection consistency must hold on the wire:
// every connection's packets arrive at exactly one backend, across the
// update, including connections pinned to the DIP being removed.
func TestTunnelLoopbackPCC(t *testing.T) { eachTunnelIO(t, testTunnelLoopbackPCC) }

func testTunnelLoopbackPCC(t *testing.T, portable bool) {
	var wg sync.WaitGroup
	dips := make([]*mockDIP, 3)
	for i := range dips {
		dips[i] = startMockDIP(t, &wg, rewriteCheck)
	}
	defer func() {
		for _, d := range dips {
			d.conn.Close()
		}
		wg.Wait()
	}()

	cfg := Defaults(10_000)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	pool := []DIP{dips[0].addr, dips[1].addr, dips[2].addr}
	if err := sw.AddVIP(sw.Now(), vip, pool); err != nil {
		t.Fatal(err)
	}
	h := startTunnel(t, sw, TunnelRewrite, portable)

	const (
		preConns  = 30
		midConns  = 10
		postConns = 30
		acks      = 3
		basePort  = uint16(20000)
		midPort   = uint16(21000)
	)
	var sent uint64

	// Phase 1: open connections and give each a few established packets.
	for c := 0; c < preConns; c++ {
		h.send(t, vip, basePort+uint16(c), FlagSYN)
		sent++
	}
	for a := 0; a < acks; a++ {
		for c := 0; c < preConns; c++ {
			h.send(t, vip, basePort+uint16(c), FlagACK)
			sent++
		}
	}
	h.waitForwarded(t, sent)

	// Mid-traffic pool update: remove a backend with PCC. Established
	// connections pinned to it must keep flowing to it.
	if err := sw.RemoveDIP(h.sw.Now(), vip, dips[2].addr); err != nil {
		t.Fatalf("RemoveDIP: %v", err)
	}

	// Phase 2: established connections keep talking and new ones open while
	// the update is in flight. The update flips new connections to the new
	// pool at its second step, once the connections pending at its start are
	// installed; until then a new connection still (correctly) draws from
	// the old pool, so these are held to PCC only.
	for c := 0; c < midConns; c++ {
		h.send(t, vip, midPort+uint16(c), FlagSYN)
		sent++
	}
	for a := 0; a < acks; a++ {
		for c := 0; c < preConns; c++ {
			h.send(t, vip, basePort+uint16(c), FlagACK)
			sent++
		}
		for c := 0; c < midConns; c++ {
			h.send(t, vip, midPort+uint16(c), FlagACK)
			sent++
		}
	}
	// Phase 3: connections opened after the update has completed. The
	// removed backend is off limits to these.
	for deadline := time.Now().Add(10 * time.Second); sw.PendingWork() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pool update still in flight: %d control-plane items pending", sw.PendingWork())
		}
	}
	for c := 0; c < postConns; c++ {
		h.send(t, vip, basePort+uint16(preConns+c), FlagSYN)
		sent++
		for a := 0; a < acks; a++ {
			h.send(t, vip, basePort+uint16(preConns+c), FlagACK)
			sent++
		}
	}
	h.waitForwarded(t, sent)

	st := h.tun.Stats()
	if st.Undecodable != 0 {
		t.Errorf("tunnel reported %d undecodable payloads", st.Undecodable)
	}
	if st.Dropped != 0 {
		t.Errorf("tunnel dropped %d packets by verdict", st.Dropped)
	}
	waitReceived(t, dips, int(st.Forwarded))

	// PCC on the wire: no connection may appear at more than one backend.
	owner := make(map[uint16]int)
	violations := 0
	received := 0
	for i, d := range dips {
		d.mu.Lock()
		if d.badPkts != 0 {
			t.Errorf("dip %d saw %d packets failing the rewrite check", i, d.badPkts)
		}
		for src, n := range d.byConn {
			received += n
			if prev, seen := owner[src]; seen && prev != i {
				violations++
				t.Errorf("PCC violation: connection src=%d seen at dip %d and dip %d", src, prev, i)
			} else {
				owner[src] = i
			}
		}
		d.mu.Unlock()
	}
	if violations != 0 {
		t.Fatalf("%d PCC violations across pool update", violations)
	}
	if want := preConns + midConns + postConns; len(owner) != want {
		t.Errorf("backends saw %d distinct connections, want %d", len(owner), want)
	}
	if uint64(received) != st.Forwarded {
		t.Errorf("backends received %d packets, tunnel forwarded %d", received, st.Forwarded)
	}
	// Connections opened after the update must avoid the removed backend.
	dips[2].mu.Lock()
	for src := range dips[2].byConn {
		if src >= basePort+preConns && src < midPort {
			t.Errorf("post-update connection src=%d landed on the removed dip", src)
		}
	}
	dips[2].mu.Unlock()
}

// TestTunnelLoopbackIPIP drives the encapsulating mode end to end: the
// backend receives IP-in-IP datagrams whose outer header names the LB and
// the DIP and whose inner packet still carries the VIP destination (DSR).
func TestTunnelLoopbackIPIP(t *testing.T) { eachTunnelIO(t, testTunnelLoopbackIPIP) }

func testTunnelLoopbackIPIP(t *testing.T, portable bool) {
	self := netip.MustParseAddr("192.0.2.1")
	var wg sync.WaitGroup
	vipAddr := netip.MustParseAddr("20.0.0.1")
	d := startMockDIP(t, &wg, func(d *mockDIP, pkt []byte) (uint16, bool) {
		inner, outerSrc, outerDst, err := netproto.DecapIPIP(pkt)
		if err != nil || outerSrc != self || outerDst != d.addr.Addr() {
			return 0, false
		}
		var f netproto.Frame
		if err := netproto.ParseFrame(inner, &f); err != nil {
			return 0, false
		}
		if f.Tuple.Dst != vipAddr || f.Tuple.DstPort != 80 {
			return f.Tuple.SrcPort, false
		}
		return f.Tuple.SrcPort, true
	})
	defer func() {
		d.conn.Close()
		wg.Wait()
	}()

	sw, err := NewSwitch(Defaults(10_000))
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	if err := sw.AddVIP(sw.Now(), vip, []DIP{d.addr}); err != nil {
		t.Fatal(err)
	}
	h := startTunnel(t, sw, TunnelIPIP, portable)

	const conns = 10
	var sent uint64
	for c := 0; c < conns; c++ {
		h.send(t, vip, 30000+uint16(c), FlagSYN)
		h.send(t, vip, 30000+uint16(c), FlagACK)
		sent += 2
	}
	h.waitForwarded(t, sent)

	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		got, bad := len(d.byConn), d.badPkts
		d.mu.Unlock()
		if bad != 0 {
			t.Fatalf("%d packets failed the IPIP check", bad)
		}
		if got == conns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend saw %d connections, want %d", got, conns)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTunnelGracefulShutdown cancels the tunnel in the middle of a traffic
// stream: Run must return promptly, nothing may panic or race, and the
// already-read batch still transmits (graceful, not abrupt).
func TestTunnelGracefulShutdown(t *testing.T) { eachTunnelIO(t, testTunnelGracefulShutdown) }

func testTunnelGracefulShutdown(t *testing.T, portable bool) {
	var wg sync.WaitGroup
	d := startMockDIP(t, &wg, rewriteCheck)
	defer func() {
		d.conn.Close()
		wg.Wait()
	}()

	sw, err := NewSwitch(Defaults(10_000))
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	if err := sw.AddVIP(sw.Now(), vip, []DIP{d.addr}); err != nil {
		t.Fatal(err)
	}
	h := startTunnel(t, sw, TunnelRewrite, portable)

	// Traffic source: hammer the tunnel until told to stop. Cancellation
	// closes the ingress socket, after which the connected client's writes
	// are refused: the sender ends on a write error that follows the
	// cancellation request and reports any other to the test goroutine.
	stop := make(chan struct{})
	var cancelled atomic.Bool
	sendErr := make(chan error, 1)
	var senderWG sync.WaitGroup
	senderWG.Add(1)
	pkt := tcpPacket(t, vip, 40000, FlagSYN)
	var f netproto.Frame
	if err := netproto.ParseFrame(pkt, &f); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer senderWG.Done()
		for src := uint16(40000); ; src++ {
			select {
			case <-stop:
				return
			default:
			}
			// A fresh connection per datagram: patch the source port.
			pkt[f.L4], pkt[f.L4+1] = byte(src>>8), byte(src)
			if _, err := h.client.Write(pkt); err != nil {
				if !cancelled.Load() {
					sendErr <- err
				}
				return
			}
		}
	}()

	// Let traffic flow, then cancel mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for h.tun.Stats().Forwarded < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.tun.Stats().Forwarded == 0 {
		t.Fatal("no traffic flowed before shutdown")
	}
	cancelled.Store(true)
	h.cancel()
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after mid-traffic cancellation")
	}
	close(stop)
	senderWG.Wait()
	select {
	case err := <-sendErr:
		t.Fatalf("client send before cancellation: %v", err)
	default:
	}

	// The batch in hand when cancellation landed was still transmitted.
	st := h.reconciled(t)
	if st.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
	t.Logf("shutdown stats: %+v", st)
}

// tunnelSink is a backend the test goroutine reads itself, for tests that
// await individual datagrams.
type tunnelSink struct {
	conn *net.UDPConn
	addr netip.AddrPort
	buf  []byte
}

// listenSink binds a sink on the loopback address of the given family
// ("udp4" or "udp6"), skipping the test where the host has no such address.
func listenSink(t *testing.T, network string) *tunnelSink {
	t.Helper()
	ip := net.IPv4(127, 0, 0, 1)
	if network == "udp6" {
		ip = net.IPv6loopback
	}
	conn, err := net.ListenUDP(network, &net.UDPAddr{IP: ip})
	if err != nil {
		if network == "udp6" {
			t.Skipf("no IPv6 loopback on this host: %v", err)
		}
		t.Fatalf("sink listen: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &tunnelSink{conn: conn, addr: conn.LocalAddr().(*net.UDPAddr).AddrPort(), buf: make([]byte, 65536)}
}

// next awaits one datagram and returns it parsed; the frame aliases the
// sink's buffer until the following call.
func (s *tunnelSink) next(t *testing.T) *netproto.Frame {
	t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := s.conn.Read(s.buf)
	if err != nil {
		t.Fatalf("sink %v: %v", s.addr, err)
	}
	var f netproto.Frame
	if err := netproto.ParseFrame(s.buf[:n], &f); err != nil {
		t.Fatalf("sink %v: forwarded packet does not parse: %v", s.addr, err)
	}
	if f.Tuple.Dst != s.addr.Addr() || f.Tuple.DstPort != s.addr.Port() {
		t.Fatalf("sink %v received a packet rewritten to %v:%d", s.addr, f.Tuple.Dst, f.Tuple.DstPort)
	}
	return &f
}

// sinkSwitch returns a switch announcing one VIP per sink, each with that
// sink as its whole pool; VIP i takes sink i's address family.
func sinkSwitch(t *testing.T, sinks ...*tunnelSink) (*Switch, []VIP) {
	t.Helper()
	sw, err := NewSwitch(Defaults(10_000))
	if err != nil {
		t.Fatal(err)
	}
	vips := make([]VIP, len(sinks))
	for i, s := range sinks {
		vips[i] = NewVIP("20.0.0.1", 80+uint16(i), TCP)
		if s.addr.Addr().Is6() {
			vips[i] = NewVIP("2001:db8::1", 80+uint16(i), TCP)
		}
		if err := sw.AddVIP(sw.Now(), vips[i], []DIP{s.addr}); err != nil {
			t.Fatal(err)
		}
	}
	return sw, vips
}

// TestTunnelLoneDatagram: a datagram that arrives alone is forwarded at
// once. The loop it replaced armed a read deadline for follow-ups after the
// first datagram of a batch, so a lone one waited out a timer (~1.1 ms with
// the poller's granularity) before it was even parsed.
func TestTunnelLoneDatagram(t *testing.T) { eachTunnelIO(t, testTunnelLoneDatagram) }

func testTunnelLoneDatagram(t *testing.T, portable bool) {
	if testing.Short() {
		t.Skip("timing test")
	}
	sink := listenSink(t, "udp4")
	sw, vips := sinkSwitch(t, sink)
	h := startTunnel(t, sw, TunnelRewrite, portable)

	const n = 200
	rtt := make([]time.Duration, n)
	for i := range rtt {
		pkt := tcpPacket(t, vips[0], 50000+uint16(i), FlagSYN)
		t0 := time.Now()
		if _, err := h.client.Write(pkt); err != nil {
			t.Fatalf("client send: %v", err)
		}
		sink.next(t)
		rtt[i] = time.Since(t0)
	}
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	t.Logf("lone datagram send->receive: p50 %v, p90 %v, max %v", rtt[n/2], rtt[n*9/10], rtt[n-1])
	if rtt[n/2] >= 500*time.Microsecond {
		t.Errorf("median lone-datagram latency %v, want < 500us: something waits on the lone path", rtt[n/2])
	}
	h.waitForwarded(t, n) // the sink can see the last datagram before the loop has counted it
	if st := h.reconciled(t); st.RxBatches != n || st.Forwarded != n {
		t.Errorf("%d lone datagrams: %+v, want %d batches of one, all forwarded", n, st, n)
	}
}

// TestTunnelBacklogOneBatch: datagrams already queued when the loop looks
// at the socket are one read pass and one send pass through either
// implementation, and on linux one recvmmsg and one sendmmsg, counted where
// the syscalls are made. With UDP GSO that sendmmsg carries one message per
// DIP, cut where a packet's length breaks the run, and every DIP still
// receives each of its datagrams whole and in order.
func TestTunnelBacklogOneBatch(t *testing.T) { eachTunnelIO(t, testTunnelBacklogOneBatch) }

func testTunnelBacklogOneBatch(t *testing.T, portable bool) {
	for _, tc := range []struct {
		name  string
		dips  int   // the backlog goes round the DIPs, datagram i to DIP i%dips
		sizes []int // datagram lengths; 0 is tcpPacket's 47 bytes
		msgs  uint64
	}{
		{"one DIP", 1, make([]int, 64), 1}, // 64: the default BatchSize
		{"four DIPs", 4, make([]int, 64), 4},
		// A message's segments are as long as its first: the 40-byte packet
		// closes one, the 60-byte one cannot join the 48-byte one before it.
		{"mixed sizes", 1, []int{48, 48, 40, 48, 60}, 3},
		// Seven fit a message's 65 507 bytes, the eighth starts the next.
		{"jumbo", 1, []int{9000, 9000, 9000, 9000, 9000, 9000, 9000, 9000}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) { testBacklog(t, portable, tc.dips, tc.sizes, tc.msgs) })
	}
}

func testBacklog(t *testing.T, portable bool, dips int, sizes []int, gsoMsgs uint64) {
	sinks := make([]*tunnelSink, dips)
	for i := range sinks {
		sinks[i] = listenSink(t, "udp4")
	}
	sw, vips := sinkSwitch(t, sinks...)
	h := newTunnelHarness(t, sw, TunnelRewrite, portable)

	type datagram struct {
		port uint16
		size int
	}
	want := make([][]datagram, dips)
	for i, size := range sizes {
		d, port := i%dips, 51000+uint16(i)
		pkt := tcpPacket(t, vips[d], port, FlagSYN)
		if size > 0 {
			pkt = tcpPacketWith(t, vips[d], port, FlagSYN, make([]byte, size-40))
		}
		if _, err := h.client.Write(pkt); err != nil {
			t.Fatalf("client send: %v", err)
		}
		want[d] = append(want[d], datagram{port, len(pkt)})
	}
	h.startOnBacklog(t)
	for d, dgs := range want {
		for _, w := range dgs {
			if f := sinks[d].next(t); f.Tuple.SrcPort != w.port || len(f.Data) != w.size {
				t.Fatalf("DIP %d received connection %d (%d B), want %d (%d B)", d, f.Tuple.SrcPort, len(f.Data), w.port, w.size)
			}
		}
	}
	n := uint64(len(sizes))
	h.waitForwarded(t, n)
	st := h.reconciled(t)
	if st.Forwarded != n {
		t.Errorf("forwarded %d of a %d-datagram backlog: %+v", st.Forwarded, n, st)
	}
	// Off unix the portable read pass is one blocking read, not a drain.
	if p, isPortable := h.tun.io.(*portableIO); (!isPortable || p.raw != nil) && (st.RxBatches != 1 || st.TxBatches != 1) {
		t.Errorf("a %d-datagram backlog took %d read and %d send passes, want 1 and 1", n, st.RxBatches, st.TxBatches)
	}
	if c, ok := h.mmsgCounts(t, portable); ok {
		msgs := n
		if c.gso {
			msgs = gsoMsgs
		}
		if c.recv != 1 || c.send != 1 || c.msgs != msgs {
			t.Errorf("a %d-datagram backlog to %d DIPs cost %d recvmmsg and %d sendmmsg calls carrying %d messages, want 1, 1 and %d",
				n, dips, c.recv, c.send, c.msgs, msgs)
		}
	}
}

// TestTunnelPartialSendFailure: one unsendable destination in the middle of
// a batch costs exactly that packet. No socket can send to port 0,
// whichever way the datagram is handed over. The batch goes to DIPs A, A,
// bad, B, B, so grouped by DIP the bad packet still sits between two sends.
func TestTunnelPartialSendFailure(t *testing.T) { eachTunnelIO(t, testTunnelPartialSendFailure) }

func testTunnelPartialSendFailure(t *testing.T, portable bool) {
	sinkA, sinkB := listenSink(t, "udp4"), listenSink(t, "udp4")
	sw, vips := sinkSwitch(t, sinkA, sinkB)
	bad := NewVIP("20.0.0.2", 80, TCP)
	if err := sw.AddVIP(sw.Now(), bad, []DIP{netip.MustParseAddrPort("127.0.0.1:0")}); err != nil {
		t.Fatal(err)
	}
	h := newTunnelHarness(t, sw, TunnelRewrite, portable)

	// Queued before the loop starts, so all five are one batch.
	for i, vip := range []VIP{vips[0], vips[0], bad, vips[1], vips[1]} {
		h.send(t, vip, 52000+uint16(i), FlagSYN)
	}
	h.startOnBacklog(t)
	for _, want := range []struct {
		sink *tunnelSink
		port uint16
	}{{sinkA, 52000}, {sinkA, 52001}, {sinkB, 52003}, {sinkB, 52004}} {
		if got := want.sink.next(t).Tuple.SrcPort; got != want.port {
			t.Fatalf("sink %v received connection %d, want %d (in order, skipping only the failed one)", want.sink.addr, got, want.port)
		}
	}
	h.waitForwarded(t, 5)
	if st := h.reconciled(t); st.Forwarded != 4 || st.TxErrors != 1 || st.Dropped != 0 {
		t.Errorf("after one failed send in a batch of five: %+v, want 4 forwarded, 1 tx error", st)
	} else if st.TxBatches != 2 {
		t.Errorf("%d send passes around one failed packet, want 2 (up to it, then after it)", st.TxBatches)
	}
	// A's message out, the bad one's errno, B's message out: with GSO each
	// good DIP's two packets are one message.
	if c, ok := h.mmsgCounts(t, portable); ok {
		msgs := uint64(4)
		if c.gso {
			msgs = 2
		}
		if c.send != 3 || c.msgs != msgs {
			t.Errorf("%d sendmmsg calls carrying %d messages around one failed message, want 3 and %d", c.send, c.msgs, msgs)
		}
	}
}

// TestTunnelMixedFamilies: one batch forwards to an IPv4 and an IPv6 DIP
// through the single egress socket (dual-stack: IPv4 leaves v4-mapped).
func TestTunnelMixedFamilies(t *testing.T) { eachTunnelIO(t, testTunnelMixedFamilies) }

func testTunnelMixedFamilies(t *testing.T, portable bool) {
	sink4, sink6 := listenSink(t, "udp4"), listenSink(t, "udp6")
	sw, vips := sinkSwitch(t, sink4, sink6)
	h := newTunnelHarness(t, sw, TunnelRewrite, portable)

	const perFamily = 4
	for i := 0; i < perFamily; i++ {
		h.send(t, vips[0], 53000+uint16(i), FlagSYN)
		h.send(t, vips[1], 53000+uint16(i), FlagSYN)
	}
	h.startOnBacklog(t)
	for i := 0; i < perFamily; i++ {
		for _, s := range []*tunnelSink{sink4, sink6} {
			if got := s.next(t).Tuple.SrcPort; got != 53000+uint16(i) {
				t.Fatalf("sink %v received connection %d, want %d", s.addr, got, 53000+i)
			}
		}
	}
	h.waitForwarded(t, 2*perFamily)
	if st := h.reconciled(t); st.Forwarded != 2*perFamily || st.TxErrors != 0 {
		t.Errorf("mixed-family batch: %+v, want %d forwarded and no tx errors", st, 2*perFamily)
	}
}

// TestTunnelOversizeDatagram: a datagram longer than maxPacket (9216 bytes)
// fills its 9 217-byte RX slot and is counted Undecodable, never parsed
// truncated — though its first 9 217 bytes are a well-formed packet — while
// the datagrams beside it in the batch, one of exactly 9216 bytes among
// them, are forwarded whole.
func TestTunnelOversizeDatagram(t *testing.T) { eachTunnelIO(t, testTunnelOversizeDatagram) }

func testTunnelOversizeDatagram(t *testing.T, portable bool) {
	sink := listenSink(t, "udp4")
	sw, vips := sinkSwitch(t, sink)
	h := newTunnelHarness(t, sw, TunnelRewrite, portable)

	// Source port 55000+i; a size of 0 is tcpPacket's small packet.
	sizes := []int{0, 9216, 9217, 0, 12000, 0}
	for i, size := range sizes {
		pkt := tcpPacket(t, vips[0], 55000+uint16(i), FlagSYN)
		if size > 0 {
			pkt = tcpPacketWith(t, vips[0], 55000+uint16(i), FlagSYN, make([]byte, size-40))
		}
		if _, err := h.client.Write(pkt); err != nil {
			t.Fatalf("client send of %d bytes: %v", len(pkt), err)
		}
	}
	h.startOnBacklog(t)
	for _, want := range []struct {
		port uint16
		size int
	}{{55000, 0}, {55001, 9216}, {55003, 0}, {55005, 0}} {
		f := sink.next(t)
		if f.Tuple.SrcPort != want.port || (want.size > 0 && len(f.Data) != want.size) {
			t.Fatalf("sink received connection %d (%d B), want %d (%d B)", f.Tuple.SrcPort, len(f.Data), want.port, want.size)
		}
	}
	h.waitForwarded(t, 4) // the last datagram's batch published its RX counters before it was sent
	if st := h.reconciled(t); st.Forwarded != 4 || st.Undecodable != 2 || st.TxErrors != 0 || st.Dropped != 0 {
		t.Errorf("two oversize datagrams among four: %+v, want 4 forwarded and 2 undecodable", st)
	}
}

// TestTunnelIPIPRejectsIPv6 is the tunnel's twin of
// TestForwardIPIPRejectsIPv6: IP-in-IP carries IPv4 only, so an IPv6 SYN to
// a VIP is counted Undecodable at parse — not metered, not learned, not
// pinned — while the IPv4 SYN beside it is forwarded.
func TestTunnelIPIPRejectsIPv6(t *testing.T) {
	cfg := Defaults(100000)
	cfg.Clock = NewManualClock(0)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vip6 := NewVIP("2001:db8::20", 80, TCP)
	for _, v := range []struct {
		vip  VIP
		pool []DIP
	}{{testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20")}, {vip6, Pool("[2001:db8::a]:20", "[2001:db8::b]:20")}} {
		if err := sw.AddVIP(0, v.vip, v.pool); err != nil {
			t.Fatal(err)
		}
	}
	fio := &fakeBatchIO{failAt: -1, queue: [][]byte{
		tcpPacket(t, vip6, 40000, FlagSYN),
		tcpPacket(t, testVIP(), 40001, FlagSYN),
	}}
	tun := &Tunnel{sw: sw, mode: TunnelIPIP, self: netip.MustParseAddr("192.0.2.1"),
		batch: 4, maxPkt: maxPacket, logf: func(string, ...any) {}, io: fio}
	before := sw.Stats()
	if err := tun.step(tun.newBatch()); err != nil {
		t.Fatal(err)
	}
	if st := tun.Stats(); st.Undecodable != 1 || st.Forwarded != 1 || st.TxErrors != 0 {
		t.Fatalf("IPv6 and IPv4 SYN through an ipip tunnel: %+v, want 1 undecodable, 1 forwarded, no tx errors", st)
	}
	sw.AdvanceTo(Time(10 * Millisecond)) // past the flush and insertion a learn would have queued
	after := sw.Stats()
	if after.Dataplane.Packets != before.Dataplane.Packets+1 ||
		after.Dataplane.LearnOffers != before.Dataplane.LearnOffers+1 ||
		after.Connections != before.Connections+1 {
		t.Fatalf("the IPv6 packet reached the pipeline: packets %d -> %d, learn offers %d -> %d, connections %d -> %d; want +1 each, the IPv4 SYN's",
			before.Dataplane.Packets, after.Dataplane.Packets,
			before.Dataplane.LearnOffers, after.Dataplane.LearnOffers,
			before.Connections, after.Connections)
	}
}

// TestTunnelStepZeroAlloc: one steady-state turn of the loop — read a
// batch, parse, balance, rewrite, send — allocates nothing, through either
// I/O implementation.
func TestTunnelStepZeroAlloc(t *testing.T) { eachTunnelIO(t, testTunnelStepZeroAlloc) }

func testTunnelStepZeroAlloc(t *testing.T, portable bool) {
	sink := listenSink(t, "udp4")
	sw, vips := sinkSwitch(t, sink)
	h := newTunnelHarness(t, sw, TunnelRewrite, portable)

	// The loop is stepped by hand, so nothing else runs (or allocates)
	// beside it. One turn: 8 queued datagrams in, 8 out.
	const conns = 8
	var pkts [conns][]byte
	for i := range pkts {
		pkts[i] = tcpPacket(t, vips[0], 54000+uint16(i), FlagSYN)
	}
	b := h.tun.newBatch()
	turn := func() {
		for _, p := range pkts {
			if _, err := h.client.Write(p); err != nil {
				t.Fatalf("client send: %v", err)
			}
		}
		for got := 0; got < conns; {
			before := h.tun.Stats().RxPackets
			if err := h.tun.step(b); err != nil {
				t.Fatalf("step: %v", err)
			}
			got += int(h.tun.Stats().RxPackets - before)
		}
		for range pkts {
			if _, err := sink.conn.Read(sink.buf); err != nil {
				t.Fatalf("sink: %v", err)
			}
		}
	}
	// Open the connections and let their insertions land: steady state is
	// ConnTable hits.
	turn()
	for i := range pkts {
		pkts[i] = tcpPacket(t, vips[0], 54000+uint16(i), FlagACK)
	}
	for deadline := time.Now().Add(5 * time.Second); sw.PendingWork() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d control-plane items still pending", sw.PendingWork())
		}
		time.Sleep(time.Millisecond)
		turn()
	}
	sink.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if allocs := testing.AllocsPerRun(50, turn); allocs != 0 {
		t.Errorf("one turn of the tunnel loop allocated %.1f times, want 0", allocs)
	}
	if st := h.reconciled(t); st.TxErrors != 0 || st.Dropped != 0 {
		t.Errorf("steady-state turns: %+v", st)
	}
}

// TestTunnelIdleTimeoutFreesConnections: the tunnel never sees a connection
// end, so a silkroadd-shaped switch (Defaults, degraded-mode watermarks, the
// wall-clock Run driver) frees entries by idle aging alone. Connections fill
// the table past its high watermark, the switch serves new flows stateless;
// the flows go idle; every entry ages out, and the next new flow finds the
// table empty, is learned again, and takes the switch out of degraded mode.
// Without an AgingTimeout (silkroadd before -idle-timeout) the table stayed
// full and the switch degraded for the rest of its life.
func TestTunnelIdleTimeoutFreesConnections(t *testing.T) {
	eachTunnelIO(t, testTunnelIdleTimeoutFreesConnections)
}

func testTunnelIdleTimeoutFreesConnections(t *testing.T, portable bool) {
	var wg sync.WaitGroup
	dip := startMockDIP(t, &wg, rewriteCheck)
	defer func() {
		dip.conn.Close()
		wg.Wait()
	}()

	const idle = time.Second // ages in 125 ms steps: gone 1-1.125 s after the last packet
	cfg := Defaults(512)
	cfg.Dataplane.DegradedHighWatermark = 0.5
	cfg.Dataplane.DegradedLowWatermark = 0.3
	cfg.Controlplane.AgingTimeout = Duration(idle.Nanoseconds())
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	if err := sw.AddVIP(sw.Now(), vip, []DIP{dip.addr}); err != nil {
		t.Fatal(err)
	}
	h := startTunnel(t, sw, TunnelRewrite, portable)

	await := func(what string, cond func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(sw.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s: %+v, degraded %+v", what, sw.Stats(), sw.DegradedState())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	resident := sw.DegradedState().Pipes[0].Capacity/2 + 8 // past the high watermark
	const stateless = 20
	for c := 0; c < resident; c++ {
		h.send(t, vip, 10000+uint16(c), FlagSYN)
		if c%64 == 63 { // a burst longer than the ingress socket's buffer is dropped there
			h.waitForwarded(t, uint64(c+1))
		}
	}
	await("every flow installed", func(st Stats) bool { return int(st.Controlplane.Inserted) == resident })
	for c := 0; c < stateless; c++ {
		h.send(t, vip, 30000+uint16(c), FlagSYN)
	}
	h.waitForwarded(t, uint64(resident+stateless))
	if st := sw.Stats(); st.Dataplane.DegradedPackets != stateless || !sw.DegradedState().Degraded ||
		int(st.Controlplane.Inserted) != resident {
		t.Fatalf("past the high watermark: %d stateless packets, degraded %+v, %d inserted; want %d, degraded, %d",
			st.Dataplane.DegradedPackets, sw.DegradedState(), st.Controlplane.Inserted, stateless, resident)
	}

	// Nothing more is sent: the flows are idle.
	idleFrom := time.Now()
	await("idle connections aged out", func(st Stats) bool { return st.Connections == 0 })
	if st := sw.Stats(); int(st.Controlplane.AgedOut) != resident || st.Controlplane.ConnsEnded != 0 {
		t.Fatalf("aged out %d and ended %d of %d connections, want all aged", st.Controlplane.AgedOut, st.Controlplane.ConnsEnded, resident)
	}
	if took := time.Since(idleFrom); took > 2*idle+time.Second {
		t.Errorf("connections idle for %v before the last aged out, want about %v", took, idle)
	}
	if n := sw.DegradedState().Pipes[0].Entries; n != 0 {
		t.Fatalf("ConnTable holds %d entries after every connection aged out", n)
	}

	h.send(t, vip, 40000, FlagSYN)
	await("a new flow learned again", func(st Stats) bool { return int(st.Controlplane.Inserted) == resident+1 })
	if st := sw.Stats(); sw.DegradedState().Degraded || st.Dataplane.DegradedTransitions != 2 || st.Connections != 1 {
		t.Fatalf("after aging: degraded %+v, %d transitions, %d connections; want serving stateful again, 2, 1",
			sw.DegradedState(), st.Dataplane.DegradedTransitions, st.Connections)
	}
	waitReceived(t, []*mockDIP{dip}, resident+stateless+1)
	if dip.badPkts != 0 {
		t.Errorf("%d packets failed the backend's header check", dip.badPkts)
	}
	h.reconciled(t)
}
