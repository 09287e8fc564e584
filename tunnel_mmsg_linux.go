//go:build linux

package silkroad

// recvmmsg/sendmmsg for the tunnel: one syscall moves a whole batch each
// way. Raw syscalls over package syscall's own types, so go.mod stays free
// of dependencies.

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

// mmsgIO is the batchIO over recvmmsg and sendmmsg. The header arrays are
// built once; a call re-points their iovecs (and, for sends, destination
// addresses) at the caller's packets.
type mmsgIO struct {
	rx, tx syscall.RawConn
	txV6   bool // the egress socket is AF_INET6 (dual-stack): IPv4 goes out v4-mapped

	rxHdrs, txHdrs []mmsghdr
	rxIovs, txIovs []syscall.Iovec
	names          []syscall.RawSockaddrInet6 // big enough for a sockaddr_in too
	zones          map[string]uint32          // link-local zone -> interface index, resolved once

	// The poller callbacks are bound once and take their arguments and
	// leave their results in these fields: a closure per call would
	// allocate per batch.
	rxFn, txFn     func(fd uintptr) bool
	rxCall, txCall mmsgCall

	// Syscalls that moved or failed a message (not those that found the
	// socket empty or its send buffer full), for the tests that hold a
	// batch to one each way.
	recvmmsgs, sendmmsgs atomic.Uint64
}

func (m *mmsgIO) syscalls() (recv, send uint64) { return m.recvmmsgs.Load(), m.sendmmsgs.Load() }

// mmsgCall is one recv or send in progress.
type mmsgCall struct {
	vlen  int           // messages offered
	done  int           // messages the kernel has moved
	errno syscall.Errno // what stopped it short, if anything did
}

// newMmsgIO returns the mmsg batchIO for the tunnel's sockets, or nil when
// the pair is unavailable (unknown syscall number, a kernel or sandbox that
// refuses a zero-length probe of either call) and the portable one must do.
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
		rx: rxRaw, tx: txRaw,
		rxHdrs: make([]mmsghdr, batch), txHdrs: make([]mmsghdr, batch),
		rxIovs: make([]syscall.Iovec, batch), txIovs: make([]syscall.Iovec, batch),
		names: make([]syscall.RawSockaddrInet6, batch),
	}
	for i := range m.rxHdrs {
		m.rxHdrs[i].hdr.Iov, m.rxHdrs[i].hdr.Iovlen = &m.rxIovs[i], 1
		m.txHdrs[i].hdr.Iov, m.txHdrs[i].hdr.Iovlen = &m.txIovs[i], 1
		m.txHdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
	}
	if !mmsgProbe(rxRaw, syscall.SYS_RECVMMSG, &m.rxHdrs[0]) || !mmsgProbe(txRaw, sysSendmmsg, &m.txHdrs[0]) {
		return nil
	}
	if err := txRaw.Control(func(fd uintptr) {
		sa, _ := syscall.Getsockname(int(fd))
		_, m.txV6 = sa.(*syscall.SockaddrInet6)
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

func (m *mmsgIO) send(pkts [][]byte, dsts []netip.AddrPort) (int, error) {
	c := &m.txCall
	*c = mmsgCall{vlen: len(pkts)}
	var encErr error
	for i, p := range pkts {
		m.txIovs[i].Base = unsafe.SliceData(p)
		m.txIovs[i].SetLen(len(p))
		if err := m.setName(i, dsts[i]); err != nil {
			c.vlen, encErr = i, err // send what precedes it, then report it
			break
		}
	}
	if err := m.tx.Write(m.txFn); err != nil {
		return c.done, err
	}
	if c.errno != 0 {
		return c.done, &net.OpError{Op: "write", Net: "udp", Err: c.errno}
	}
	return c.done, encErr
}

// sendReady is send's poller callback: false parks until writable.
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
