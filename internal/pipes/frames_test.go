package pipes

// Tests for the batch path on parsed wire frames: a one-frame batch must
// shard like a full one, and the steady-state sweep must not allocate.

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// framesN materializes frames for connections [0, n): each tuple marshaled
// to wire bytes and parsed once, like the tunnel's receive path.
func framesN(t *testing.T, n int, flags uint8) []netproto.Frame {
	t.Helper()
	frames := make([]netproto.Frame, n)
	var arena, scratch []byte
	offs := make([]int, n+1)
	for i := 0; i < n; i++ {
		p := netproto.Packet{Tuple: tupleN(i), TCPFlags: flags}
		raw, err := p.Marshal(scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = raw
		arena = append(arena, raw...)
		offs[i+1] = len(arena)
	}
	for i := 0; i < n; i++ {
		if err := netproto.ParseFrame(arena[offs[i]:offs[i+1]:offs[i+1]], &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// TestEngineProcessFrameSingle covers frames sent one at a time, as
// one-frame batches: they must pin connections to the same pipe as full
// batches, whose ACKs then hit the connections the SYNs installed.
func TestEngineProcessFrameSingle(t *testing.T) {
	e := newTestEngine(t, 4, 10000)
	now := simtime.Time(0)
	syn := framesN(t, 64, netproto.FlagSYN)
	var res [1]dataplane.Result
	for i := range syn {
		if e.ProcessFramesInto(now, syn[i:i+1], res[:]); res[0].Verdict != dataplane.VerdictForward {
			t.Fatalf("SYN %d: %v", i, res[0].Verdict)
		}
	}
	now = now.Add(simtime.Duration(10 * simtime.Second))
	e.Advance(now)
	ack := framesN(t, 64, netproto.FlagACK)
	results := make([]dataplane.Result, len(ack))
	e.ProcessFramesInto(now, ack, results)
	for i, res := range results {
		if res.Verdict != dataplane.VerdictForward || !res.ConnHit {
			t.Fatalf("ACK %d not a ConnTable hit: %+v", i, res)
		}
	}
	if got := e.Stats().Connections; got != 64 {
		t.Fatalf("connections = %d, want 64", got)
	}
}

// TestFramesBatchSteadyStateAllocs guards the wire path's allocation-free
// claim on a multi-pipe engine: established frames swept with
// ProcessFramesInto must allocate nothing.
func TestFramesBatchSteadyStateAllocs(t *testing.T) {
	e := newTestEngine(t, 4, 10000)
	const conns = 256
	now := simtime.Time(0)
	results := make([]dataplane.Result, conns)
	e.ProcessFramesInto(now, framesN(t, conns, netproto.FlagSYN), results)
	now = now.Add(simtime.Duration(10 * simtime.Second))
	e.Advance(now)
	frames := framesN(t, conns, netproto.FlagACK)
	e.ProcessFramesInto(now, frames, results) // warm the reusable buffers
	avg := testing.AllocsPerRun(20, func() {
		e.ProcessFramesInto(now, frames, results)
	})
	if avg != 0 {
		t.Fatalf("steady-state frames batch allocates %.1f times per %d packets, want 0", avg, conns)
	}
}
