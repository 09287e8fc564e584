package ctrlplane

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/cuckoo"
	"repro/internal/dataplane"
	"repro/internal/handoff"
	"repro/internal/learnfilter"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// ErrVersionSpace is returned by MapVersion when every version number is
// pinned by live connections and none can be retired — the import
// equivalent of §4.2's "very rare" version exhaustion.
var ErrVersionSpace = errors.New("ctrlplane: no free version for imported pool")

// ErrUnknownImportVersion rejects an ImportEntry whose version was never
// mapped on this control plane.
var ErrUnknownImportVersion = errors.New("ctrlplane: import version not mapped")

// ExportSession is a live conn-table export: a snapshot of every installed
// connection frozen at BeginExport (sorted by key hash, so chunking is
// deterministic) plus a delta feed of the inserts and deletes that land
// while the snapshot drains. The donor's packet path never pauses — the
// snapshot reads the CPU's half of the table and its records, and deltas are
// appended by the normal install/release paths at no extra table cost.
//
// It implements handoff.Exporter.
type ExportSession struct {
	cp      *ControlPlane
	entries []handoff.Entry
	pos     int
	deltas  []handoff.Entry
	cursor  uint64
	closed  bool
}

// BeginExport freezes a snapshot of the installed connection table and
// attaches a delta feed. Close the session when done — an open session
// accumulates deltas without bound.
func (cp *ControlPlane) BeginExport(now simtime.Time) *ExportSession {
	s := &ExportSession{cp: cp, cursor: cp.journalCursor()}
	pools := make(map[*vipCtl]map[uint32][]dataplane.DIP)
	type conn struct {
		keyHash  uint64
		rec, ver uint32
	}
	installed := make([]conn, 0, cp.conns.live)
	cp.sw.ConnTable().Walk(func(e cuckoo.Entry) bool {
		if e.Record != 0 {
			installed = append(installed, conn{e.KeyHash, e.Record, e.Value})
		}
		return true
	})
	sort.Slice(installed, func(i, j int) bool { return installed[i].keyHash < installed[j].keyHash })
	s.entries = make([]handoff.Entry, 0, len(installed))
	for _, in := range installed {
		vc, tuple := cp.conn(in.rec)
		e := cp.exportEntry(vc, tuple, in.ver, handoff.OpUpsert)
		// Share one pool clone per (vip, version): snapshots are large and
		// most entries pin the same few versions.
		byVer := pools[vc]
		if byVer == nil {
			byVer = make(map[uint32][]dataplane.DIP)
			pools[vc] = byVer
		}
		if p, ok := byVer[in.ver]; ok {
			e.Pool = p
		} else {
			byVer[in.ver] = e.Pool
		}
		s.entries = append(s.entries, e)
	}
	cp.exports = append(cp.exports, s)
	return s
}

// exportEntry renders one connection of vc, pinned to pool version ver, as
// a transferable entry. Delete entries skip the pool and DIP (the receiver
// removes by tuple).
func (cp *ControlPlane) exportEntry(vc *vipCtl, tuple netproto.FiveTuple, ver uint32, op handoff.Op) handoff.Entry {
	e := handoff.Entry{Op: op, Tuple: tuple, VIP: vc.vip, Version: ver}
	e.KeyHash, e.Digest = cp.sw.ConnHashes(tuple)
	if op == handoff.OpUpsert {
		e.Pool = clone(vc.row(ver))
		if dip, err := cp.sw.SelectDIP(vc.vip, ver, tuple); err == nil {
			e.DIP = dip
		}
	}
	return e
}

// journalCursor returns the flight-recorder journal sequence when the
// attached tracer is a Recorder (its gap-free record counter), falling
// back to the control plane's own mutation counter otherwise. Either way
// the cursor is monotone over conn-table mutations, which is all the
// handoff protocol needs to order snapshots against delta streams.
func (cp *ControlPlane) journalCursor() uint64 {
	if js, ok := cp.tracer.(interface{ JournalSeq() uint64 }); ok {
		return js.JournalSeq()
	}
	return cp.handoffSeq
}

// Pending implements handoff.Exporter.
func (s *ExportSession) Pending() int { return len(s.entries) - s.pos }

// NextChunk implements handoff.Exporter: the next max snapshot entries.
func (s *ExportSession) NextChunk(max int) []handoff.Entry {
	if max <= 0 || s.pos+max > len(s.entries) {
		max = len(s.entries) - s.pos
	}
	chunk := s.entries[s.pos : s.pos+max]
	s.pos += max
	return chunk
}

// Deltas implements handoff.Exporter: drains the accumulated delta feed.
func (s *ExportSession) Deltas() []handoff.Entry {
	d := s.deltas
	s.deltas = nil
	return d
}

// Cursor implements handoff.Exporter: the journal sequence at capture.
func (s *ExportSession) Cursor() uint64 { return s.cursor }

// Close implements handoff.Exporter: detaches the delta feed.
func (s *ExportSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for i, o := range s.cp.exports {
		if o == s {
			s.cp.exports = append(s.cp.exports[:i], s.cp.exports[i+1:]...)
			break
		}
	}
}

// noteConn feeds an installed (OpUpsert) or released (OpDelete) connection
// of vc into every open export session and bumps the fallback cursor. The
// install paths call it after the record is written.
func (cp *ControlPlane) noteConn(vc *vipCtl, tuple netproto.FiveTuple, ver uint32, op handoff.Op) {
	cp.handoffSeq++
	if len(cp.exports) == 0 {
		return
	}
	e := cp.exportEntry(vc, tuple, ver, op)
	for _, s := range cp.exports {
		s.deltas = append(s.deltas, e)
	}
}

// MapVersion resolves a donor's pool to a local version number: an
// existing version whose row equals the donor's slot for slot, else a
// freshly written version holding the donor's row, so imported connections
// keep their mapping. Version numbers are switch-local; a row is portable
// because, with shared hash seeds, a connection selects the same slot on
// any switch — so the same DIPs in another order select other DIPs. The
// current version is preferred so latest-version imports collapse onto the
// receiver's live version.
func (cp *ControlPlane) MapVersion(now simtime.Time, vip dataplane.VIP, donorPool []dataplane.DIP) (uint32, error) {
	vc, ok := cp.vips[vip]
	if !ok {
		return 0, dataplane.ErrUnknownVIP
	}
	if slices.Equal(vc.row(vc.curVer), donorPool) {
		return vc.curVer, nil
	}
	for _, p := range vc.vers {
		if slices.Equal(p.row, donorPool) {
			return p.ver, nil
		}
	}
	v, ok := cp.allocVersion(vc)
	if !ok {
		return 0, ErrVersionSpace
	}
	cp.writeRow(vc, v, donorPool)
	return v, nil
}

// ImportEntry accepts one transferred connection, pinning tuple to the
// (already mapped) local version ver through the bounded CPU insertion
// queue — imported state pays the same insert rate as learned state and
// must not starve the receiver's own learning, so a full queue returns
// handoff.ErrBackpressure and the transfer pauses until the CPU drains.
// A connection the receiver already tracks is a no-op (nil).
func (cp *ControlPlane) ImportEntry(now simtime.Time, tuple netproto.FiveTuple, ver uint32) error {
	kh, dg := cp.sw.ConnHashes(tuple)
	if _, ok := cp.tracked(kh, dg); ok {
		return nil
	}
	vip := dataplane.VIPOf(tuple)
	vc, ok := cp.vips[vip]
	if !ok {
		return dataplane.ErrUnknownVIP
	}
	if vc.version(ver) == nil {
		return ErrUnknownImportVersion
	}
	if bound := cp.cfg.MaxInsertQueue; bound > 0 && cp.queue.len() >= bound {
		return handoff.ErrBackpressure
	}
	start := cp.cpuFreeAt
	if now.After(start) {
		start = now
	}
	per := cp.perInsert()
	cp.queue.push(pendingInsert{
		ev: learnfilter.Event{
			Tuple:   tuple,
			KeyHash: kh,
			Digest:  dg,
			Version: ver,
			At:      now,
		},
		completeAt: start.Add(per),
		imported:   true,
	})
	cp.cpuFreeAt = start.Add(per)
	if cp.queue.len() > cp.metrics.MaxInsertQueue {
		cp.metrics.MaxInsertQueue = cp.queue.len()
	}
	return nil
}

// Importer adapts a receiving control plane as a handoff.Importer: each
// entry's pool is mapped onto a local version by MapVersion, and imported
// entries are recorded so a cancelled transfer can be unwound (and a
// completed rejoin can release the donor's copies).
type Importer struct {
	cp   *ControlPlane
	took []netproto.FiveTuple
}

// NewImporter builds an Importer over cp.
func NewImporter(cp *ControlPlane) *Importer { return &Importer{cp: cp} }

// Import implements handoff.Importer.
func (im *Importer) Import(now simtime.Time, e handoff.Entry) error {
	ver, err := im.cp.MapVersion(now, e.VIP, e.Pool)
	if err != nil {
		return err
	}
	if err := im.cp.ImportEntry(now, e.Tuple, ver); err != nil {
		return err
	}
	im.took = append(im.took, e.Tuple)
	return nil
}

// Delete implements handoff.Importer: replays a delta delete.
func (im *Importer) Delete(now simtime.Time, e handoff.Entry) {
	im.cp.EndImported(now, e.Tuple)
}

// Imported returns every tuple accepted so far (shared slice).
func (im *Importer) Imported() []netproto.FiveTuple { return im.took }

// Unwind releases every imported connection — the cancel path, so an
// abandoned transfer leaves the receiver exactly as it was.
func (im *Importer) Unwind(now simtime.Time) {
	for _, t := range im.took {
		im.cp.EndImported(now, t)
	}
	im.took = nil
}

// EndImported releases one connection by tuple — the delta-delete replay
// and the donor-side release after a rejoin migration. Unlike
// EndConnection it does not count toward ConnsEnded when the connection
// was never tracked.
func (cp *ControlPlane) EndImported(now simtime.Time, tuple netproto.FiveTuple) {
	kh, dg := cp.sw.ConnHashes(tuple)
	e, ok := cp.tracked(kh, dg)
	if !ok {
		// The entry may still sit in the import queue: cancel it there so a
		// delta delete racing the snapshot import cannot resurrect it.
		for i := 0; i < cp.queue.len(); i++ {
			if pi := cp.queue.at(i); pi.ev.KeyHash == kh && pi.imported {
				cp.queue.remove(i)
				break
			}
		}
		return
	}
	cp.release(now, e)
	cp.metrics.ConnsEnded++
}
