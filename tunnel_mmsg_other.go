//go:build !linux

package silkroad

import "net"

// newMmsgIO reports that recvmmsg/sendmmsg are unavailable off linux: the
// tunnel runs on portableIO.
func newMmsgIO(rx, tx *net.UDPConn, batch int) batchIO { return nil }
