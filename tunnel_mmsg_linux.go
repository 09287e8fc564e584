//go:build linux

package silkroad

// recvmmsg/sendmmsg for the tunnel: one syscall moves a whole batch each
// way, and where the kernel has UDP GSO each destination's run of packets
// leaves as one segmented message. Raw syscalls over package syscall's own
// types, so go.mod stays free of dependencies.

import (
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mmsghdr is the kernel's struct mmsghdr. Go pads it to Msghdr's alignment
// exactly as C does (64 bytes on 64-bit targets, 32 on 32-bit ones).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32 // bytes received or sent, filled by the kernel
}

// sysSendmmsg is sendmmsg's number, or 0 where this file does not know it:
// package syscall is frozen without SYS_SENDMMSG on some architectures
// (amd64 among them), so it cannot be named there.
var sysSendmmsg = func() uintptr {
	switch runtime.GOARCH {
	case "amd64":
		return 307
	case "arm64":
		return 269
	}
	return 0
}()

const (
	// udpSegment is UDP_SEGMENT (linux 4.18), at level IPPROTO_UDP: as a
	// control message it makes one send of n bytes n/size datagrams of
	// size bytes and one of the remainder.
	udpSegment = 103
	// gsoMaxSegments is the most datagrams one segmented send may carry
	// (UDP_MAX_SEGMENTS; later kernels raised it to 128).
	gsoMaxSegments = 64
	// gsoMaxBytes bounds a segmented send's payload: the most a UDP
	// datagram over IPv4 can carry.
	gsoMaxBytes = 65507
)

// gsoCmsg is a UDP_SEGMENT control message. Its Go layout is the C one on
// every linux arch: the segment size sits at CMSG_DATA, CmsgLen(0) bytes
// in, and the struct is CmsgSpace(2) bytes long.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
}

// mmsgIO is the batchIO over recvmmsg and sendmmsg. The header arrays are
// built once; a call re-points their iovecs (and, for sends, destination
// addresses and segment sizes) at the caller's packets. Send headers are
// messages and send iovecs packets: message i gathers its run of packets.
type mmsgIO struct {
	rx, tx syscall.RawConn
	txV6   bool // the egress socket is AF_INET6 (dual-stack): IPv4 goes out v4-mapped
	segs   int  // the most packets one message carries: gsoMaxSegments with UDP GSO, else 1

	rxHdrs, txHdrs []mmsghdr
	rxIovs, txIovs []syscall.Iovec
	names          []syscall.RawSockaddrInet6 // big enough for a sockaddr_in too
	gso            []gsoCmsg                  // message i's control message when it has segments
	zones          map[string]uint32          // link-local zone -> interface index, resolved once

	// The poller callbacks are bound once and take their arguments and
	// leave their results in these fields: a closure per call would
	// allocate per batch.
	rxFn, txFn     func(fd uintptr) bool
	rxCall, txCall mmsgCall

	// Syscalls that moved or failed a message (not those that found the
	// socket empty or its send buffer full), and the messages sendmmsg
	// moved, for the tests that hold a batch to one call each way and a
	// destination's packets to one message.
	recvmmsgs, sendmmsgs, messages atomic.Uint64
}

func (m *mmsgIO) counts() (recvmmsgs, sendmmsgs, messages uint64, gso bool) {
	return m.recvmmsgs.Load(), m.sendmmsgs.Load(), m.messages.Load(), m.segs > 1
}

// mmsgCall is one recv or send in progress.
type mmsgCall struct {
	vlen  int           // messages offered
	done  int           // messages the kernel has moved
	errno syscall.Errno // what stopped it short, if anything did
}

// newMmsgIO returns the mmsg batchIO for the tunnel's sockets, or nil when
// the pair is unavailable (unknown syscall number, a kernel or sandbox that
// refuses a zero-length probe of either call) and the portable one must do.
// It segments sends where the egress socket reads back UDP_SEGMENT; a
// kernel without UDP GSO refuses the option (ENOPROTOOPT) and gets one
// message per packet.
func newMmsgIO(rx, tx *net.UDPConn, batch int) batchIO {
	if sysSendmmsg == 0 {
		return nil
	}
	rxRaw, err := rx.SyscallConn()
	if err != nil {
		return nil
	}
	txRaw, err := tx.SyscallConn()
	if err != nil {
		return nil
	}
	m := &mmsgIO{
		rx: rxRaw, tx: txRaw, segs: 1,
		rxHdrs: make([]mmsghdr, batch), txHdrs: make([]mmsghdr, batch),
		rxIovs: make([]syscall.Iovec, batch), txIovs: make([]syscall.Iovec, batch),
		names: make([]syscall.RawSockaddrInet6, batch),
		gso:   make([]gsoCmsg, batch),
	}
	for i := range m.rxHdrs {
		m.rxHdrs[i].hdr.Iov, m.rxHdrs[i].hdr.Iovlen = &m.rxIovs[i], 1
		m.txHdrs[i].hdr.Iov, m.txHdrs[i].hdr.Iovlen = &m.txIovs[i], 1
		m.txHdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		c := &m.gso[i].hdr
		c.Level, c.Type = syscall.IPPROTO_UDP, udpSegment
		c.SetLen(syscall.CmsgLen(2))
	}
	if !mmsgProbe(rxRaw, syscall.SYS_RECVMMSG, &m.rxHdrs[0]) || !mmsgProbe(txRaw, sysSendmmsg, &m.txHdrs[0]) {
		return nil
	}
	if err := txRaw.Control(func(fd uintptr) {
		sa, _ := syscall.Getsockname(int(fd))
		_, m.txV6 = sa.(*syscall.SockaddrInet6)
		if _, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment); err == nil {
			m.segs = gsoMaxSegments
		}
	}); err != nil {
		return nil
	}
	m.rxFn, m.txFn = m.recvReady, m.sendReady
	return m
}

// mmsgProbe reports whether the kernel (and any syscall filter around the
// process) accepts the call: a vector of zero messages moves nothing and
// returns 0.
func mmsgProbe(raw syscall.RawConn, trap uintptr, hdr *mmsghdr) bool {
	var errno syscall.Errno
	err := raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(hdr)), 0, syscall.MSG_DONTWAIT, 0, 0)
	})
	return err == nil && errno == 0
}

func (m *mmsgIO) recv(bufs [][]byte, sizes []int) (int, error) {
	for i, b := range bufs {
		m.rxIovs[i].Base = unsafe.SliceData(b)
		m.rxIovs[i].SetLen(len(b))
	}
	c := &m.rxCall
	*c = mmsgCall{vlen: len(bufs)}
	if err := m.rx.Read(m.rxFn); err != nil {
		return 0, err
	}
	if c.errno != 0 {
		return 0, &net.OpError{Op: "read", Net: "udp", Err: c.errno}
	}
	for i := range sizes[:c.done] {
		sizes[i] = int(m.rxHdrs[i].len)
	}
	return c.done, nil
}

// recvReady is recv's poller callback: false parks until readable.
func (m *mmsgIO) recvReady(fd uintptr) bool {
	c := &m.rxCall
	for {
		// No source addresses are asked for: the tunnel never replies.
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&m.rxHdrs[0])),
			uintptr(c.vlen), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			m.recvmmsgs.Add(1)
			c.done = int(r)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false // queue empty
		default:
			m.recvmmsgs.Add(1)
			c.errno = e
			return true
		}
	}
}

// send packs the packets into messages, a run of one destination's into
// one segmented message, and hands them to the kernel together. A
// segmented message the kernel refuses (a segment over a real NIC's MTU, a
// checksum it cannot offload, ...) is sent again one message per packet
// before anything else moves, so each of its packets fails or goes out as
// it would alone.
func (m *mmsgIO) send(pkts [][]byte, dsts []netip.AddrPort) (int, error) {
	sent := 0
	for {
		msgs, encErr := m.pack(pkts[sent:], dsts[sent:], m.segs)
		done, err := m.flush(msgs)
		for i := range m.txHdrs[:done] {
			sent += int(m.txHdrs[i].hdr.Iovlen)
		}
		if err == nil {
			return sent, encErr // the packet after the last message, if any, could not be addressed
		}
		segs := int(m.txHdrs[done].hdr.Iovlen)
		if segs == 1 {
			return sent, err
		}
		// The same destinations were addressed a moment ago: this cannot fail.
		msgs, _ = m.pack(pkts[sent:sent+segs], dsts[sent:sent+segs], 1)
		done, err = m.flush(msgs)
		if sent += done; err != nil {
			return sent, err
		}
	}
}

// pack lays pkts out as the first messages of txHdrs and returns how many.
// A message holds a run of packets to one destination, at most maxSegs of
// them and gsoMaxBytes in all, each as long as the first but for one
// shorter packet that closes it: the kernel cuts a segmented message at
// the first packet's length. A message of more than one packet carries
// that length as its UDP_SEGMENT control message; one of a single packet
// carries none. pack stops before a packet whose destination cannot be
// written, returning that error.
func (m *mmsgIO) pack(pkts [][]byte, dsts []netip.AddrPort, maxSegs int) (msgs int, err error) {
	for i := 0; i < len(pkts); msgs++ {
		if err = m.setName(msgs, dsts[i]); err != nil {
			return msgs, err
		}
		size, bytes, j := len(pkts[i]), len(pkts[i]), i+1
		for ; j < len(pkts) && j-i < maxSegs && dsts[j] == dsts[i] && len(pkts[j-1]) == size &&
			len(pkts[j]) <= size && bytes+len(pkts[j]) <= gsoMaxBytes; j++ {
			bytes += len(pkts[j])
		}
		for k, p := range pkts[i:j] {
			m.txIovs[i+k].Base = unsafe.SliceData(p)
			m.txIovs[i+k].SetLen(len(p))
		}
		hdr := &m.txHdrs[msgs].hdr
		hdr.Iov = &m.txIovs[i]
		setIovlen(&hdr.Iovlen, j-i)
		hdr.Control = nil
		hdr.SetControllen(0)
		if j-i > 1 {
			m.gso[msgs].size = uint16(size)
			hdr.Control = (*byte)(unsafe.Pointer(&m.gso[msgs]))
			hdr.SetControllen(syscall.CmsgSpace(2))
		}
		i = j
	}
	return msgs, nil
}

// setIovlen stores n in Msghdr.Iovlen, a uint64 on 64-bit linux and a
// uint32 on 32-bit.
func setIovlen[T ~uint32 | ~uint64](iovlen *T, n int) { *iovlen = T(n) }

// flush hands the first msgs messages of txHdrs to the kernel and returns
// how many went out; an error means the one after them failed.
func (m *mmsgIO) flush(msgs int) (int, error) {
	if msgs == 0 {
		return 0, nil
	}
	c := &m.txCall
	*c = mmsgCall{vlen: msgs}
	if err := m.tx.Write(m.txFn); err != nil {
		return c.done, err
	}
	if c.errno != 0 {
		return c.done, &net.OpError{Op: "write", Net: "udp", Err: c.errno}
	}
	return c.done, nil
}

// sendReady is flush's poller callback: false parks until writable.
func (m *mmsgIO) sendReady(fd uintptr) bool {
	c := &m.txCall
	for c.done < c.vlen {
		// A short count means the message after the last one sent failed;
		// the retry from there returns its errno.
		r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&m.txHdrs[c.done])),
			uintptr(c.vlen-c.done), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			m.sendmmsgs.Add(1)
			m.messages.Add(uint64(r))
			c.done += int(r)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false // send buffer full
		default:
			m.sendmmsgs.Add(1)
			c.errno = e
			return true
		}
	}
	return true
}

// setName writes dst as message i's destination in the egress socket's
// address family.
func (m *mmsgIO) setName(i int, dst netip.AddrPort) error {
	addr, port := dst.Addr(), dst.Port()
	hdr := &m.txHdrs[i].hdr
	if !m.txV6 {
		if addr = addr.Unmap(); !addr.Is4() {
			return errors.New("IPv6 destination on an IPv4-only egress socket")
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&m.names[i]))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: addr.As4()}
		*(*[2]byte)(unsafe.Pointer(&sa.Port)) = [2]byte{byte(port >> 8), byte(port)}
		hdr.Namelen = syscall.SizeofSockaddrInet4
		return nil
	}
	sa := &m.names[i]
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: addr.As16()} // IPv4 as ::ffff:a.b.c.d
	*(*[2]byte)(unsafe.Pointer(&sa.Port)) = [2]byte{byte(port >> 8), byte(port)}
	if zone := addr.Zone(); zone != "" {
		idx, err := m.zoneIndex(zone)
		if err != nil {
			return err
		}
		sa.Scope_id = idx
	}
	hdr.Namelen = syscall.SizeofSockaddrInet6
	return nil
}

// zoneIndex returns the interface index of a link-local DIP's zone. The
// first packet to a zone resolves it (net.InterfaceByName allocates and reads
// the interface list); later ones read the cache. A zone that fails to
// resolve is not cached, so an interface that appears later is found.
func (m *mmsgIO) zoneIndex(zone string) (uint32, error) {
	if idx, ok := m.zones[zone]; ok {
		return idx, nil
	}
	ifi, err := net.InterfaceByName(zone)
	if err != nil {
		return 0, err
	}
	if m.zones == nil {
		m.zones = make(map[string]uint32)
	}
	m.zones[zone] = uint32(ifi.Index)
	return uint32(ifi.Index), nil
}
