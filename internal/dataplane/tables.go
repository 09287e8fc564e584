package dataplane

import (
	"errors"
	"fmt"

	"repro/internal/cuckoo"
	"repro/internal/netproto"
	"repro/internal/regarray"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// CPU-side table primitives. These mutate the hardware tables the way the
// switch driver software does: one operation at a time, with the pipeline
// continuing to forward between operations. Timing (how long the CPU takes
// per insertion, when batches drain) is the control plane's concern.

// Errors returned by table operations.
var (
	ErrUnknownVIP     = errors.New("dataplane: unknown VIP")
	ErrUnknownVersion = errors.New("dataplane: unknown pool version")
	ErrVIPExists      = errors.New("dataplane: VIP already installed")
	ErrPoolInUse      = errors.New("dataplane: pool version is current")
)

// InstallVIP creates the VIPTable row for vip with an initial pool version.
// meterBytesPerSec > 0 attaches a two-rate three-color meter sized at that
// committed rate (excess = 10% above committed).
func (s *Switch) InstallVIP(vip VIP, ver uint32, pool []DIP, meterBytesPerSec float64) error {
	if _, dup := s.vips[vip]; dup {
		return ErrVIPExists
	}
	if err := s.checkVer(ver); err != nil {
		return err
	}
	vs := &vipState{
		vip:    vip,
		curVer: ver,
		pools:  map[uint32][]DIP{ver: clonePool(pool)},
	}
	if meterBytesPerSec > 0 {
		vs.meter = regarray.NewMeter(meterBytesPerSec, meterBytesPerSec/100,
			meterBytesPerSec/10, meterBytesPerSec/100)
	}
	if s.tracer != nil {
		// Resolve the per-VIP telemetry series once; the packet path carries
		// the handle instead of looking it up.
		vs.tel = s.tracer.RegisterVIP(s.pipe, vip.TelemetryKey())
	}
	s.vips[vip] = vs
	return nil
}

// RemoveVIP deletes the VIPTable row and all DIPPoolTable rows of vip.
func (s *Switch) RemoveVIP(vip VIP) error {
	if _, ok := s.vips[vip]; !ok {
		return ErrUnknownVIP
	}
	delete(s.vips, vip)
	s.lastVS = nil // the packet path's one-entry cache may hold this row
	return nil
}

// HasVIP reports whether vip is installed.
func (s *Switch) HasVIP(vip VIP) bool {
	_, ok := s.vips[vip]
	return ok
}

// VIPs returns the installed VIPs.
func (s *Switch) VIPs() []VIP {
	out := make([]VIP, 0, len(s.vips))
	for v := range s.vips {
		out = append(out, v)
	}
	return out
}

// WritePool writes (or overwrites, for version reuse) the DIPPoolTable row
// (vip, ver) -> pool.
func (s *Switch) WritePool(vip VIP, ver uint32, pool []DIP) error {
	vs, ok := s.vips[vip]
	if !ok {
		return ErrUnknownVIP
	}
	if err := s.checkVer(ver); err != nil {
		return err
	}
	vs.pools[ver] = clonePool(pool)
	vs.rowValid = false
	return nil
}

// DeletePool removes the DIPPoolTable row for a retired version.
func (s *Switch) DeletePool(vip VIP, ver uint32) error {
	vs, ok := s.vips[vip]
	if !ok {
		return ErrUnknownVIP
	}
	if _, ok := vs.pools[ver]; !ok {
		return ErrUnknownVersion
	}
	if ver == vs.curVer || (vs.inUpdate && ver == vs.oldVer) {
		return ErrPoolInUse
	}
	delete(vs.pools, ver)
	vs.rowValid = false
	return nil
}

// Pool returns the DIP pool stored for (vip, ver).
func (s *Switch) Pool(vip VIP, ver uint32) ([]DIP, error) {
	vs, ok := s.vips[vip]
	if !ok {
		return nil, ErrUnknownVIP
	}
	p, ok := vs.pools[ver]
	if !ok {
		return nil, ErrUnknownVersion
	}
	return clonePool(p), nil
}

// CurrentVersion returns the version new connections of vip map to.
func (s *Switch) CurrentVersion(vip VIP) (uint32, error) {
	vs, ok := s.vips[vip]
	if !ok {
		return 0, ErrUnknownVIP
	}
	return vs.curVer, nil
}

// PoolVersions returns the active pool versions of vip.
func (s *Switch) PoolVersions(vip VIP) ([]uint32, error) {
	vs, ok := s.vips[vip]
	if !ok {
		return nil, ErrUnknownVIP
	}
	out := make([]uint32, 0, len(vs.pools))
	for v := range vs.pools {
		out = append(out, v)
	}
	return out, nil
}

// SetRecording enables/disables step 1 of the PCC update: while recording,
// every ConnTable miss of this VIP inserts the connection into the
// TransitTable bloom filter.
func (s *Switch) SetRecording(vip VIP, on bool) error {
	vs, ok := s.vips[vip]
	if !ok {
		return ErrUnknownVIP
	}
	vs.recording = on
	return nil
}

// BeginTransition executes the VIPTable version swap (t_exec): the new pool
// version becomes current, and misses consult the TransitTable to decide
// between old and new versions (step 2). Recording stops atomically with
// the swap.
func (s *Switch) BeginTransition(vip VIP, newVer uint32) error {
	vs, ok := s.vips[vip]
	if !ok {
		return ErrUnknownVIP
	}
	if _, ok := vs.pools[newVer]; !ok {
		return ErrUnknownVersion
	}
	vs.oldVer = vs.curVer
	vs.curVer = newVer
	vs.inUpdate = true
	vs.recording = false
	return nil
}

// EndTransition finishes step 3 for vip: misses no longer consult the
// TransitTable.
func (s *Switch) EndTransition(vip VIP) error {
	vs, ok := s.vips[vip]
	if !ok {
		return ErrUnknownVIP
	}
	vs.inUpdate = false
	return nil
}

// SetCurrentVersion swaps the VIPTable version with no PCC machinery — the
// behaviour of SilkRoad-without-TransitTable used as an ablation (Fig. 16).
func (s *Switch) SetCurrentVersion(vip VIP, ver uint32) error {
	vs, ok := s.vips[vip]
	if !ok {
		return ErrUnknownVIP
	}
	if _, ok := vs.pools[ver]; !ok {
		return ErrUnknownVersion
	}
	vs.curVer = ver
	vs.inUpdate = false
	vs.recording = false
	return nil
}

// InUpdate reports whether vip is between t_exec and t_finish (step 2).
func (s *Switch) InUpdate(vip VIP) bool {
	vs, ok := s.vips[vip]
	return ok && vs.inUpdate
}

// ClearTransit empties the TransitTable (end of step 3, when no update
// remains in flight).
func (s *Switch) ClearTransit() {
	if s.transit != nil {
		s.transit.Clear()
	}
}

// TransitInserts returns the number of keys inserted into the TransitTable
// since it was last cleared (0 when the filter is disabled).
func (s *Switch) TransitInserts() int {
	if s.transit == nil {
		return 0
	}
	return s.transit.Inserts()
}

// InsertConn installs the connection entry tuple -> ver. The cuckoo search
// and digest-alias fixes run as they would on the switch CPU. Telemetry is
// stamped at virtual time zero and the entry carries no record, so a switch
// whose control plane derives key hashes from its records refuses it
// (cuckoo.ErrNoRecord); CPU-scheduled callers use InsertConnAt.
func (s *Switch) InsertConn(t netproto.FiveTuple, ver uint32) error {
	keyHash, digest := s.ConnHashes(t)
	return s.InsertConnAt(0, keyHash, digest, ver, 0)
}

// InsertConnAt is the insertion itself, as the switch software issues it:
// the connection arrives as the key hash and digest its learn event (or the
// redirected SYN's result) already carries, so the tuple is hashed once per
// connection, in the pipeline. rec is the index of the software's record of
// the connection (0 = none); it is stored with the entry and moves with it,
// and the table's record hasher derives the key hash from it.
// now stamps the cuckoo telemetry event (kick-chain length, alias
// relocations, table occupancy).
func (s *Switch) InsertConnAt(now simtime.Time, keyHash uint64, digest uint32, ver, rec uint32) error {
	relocBefore := s.conn.Relocations
	moves, err := s.conn.InsertRecord(keyHash, digest, ver, rec)
	if err == cuckoo.ErrDuplicate {
		// A connection learned again while installed: the switch software
		// counts the duplicate; the table searched, moved and refused
		// nothing, so there is no table operation to report.
		return err
	}
	if s.tracer != nil {
		s.tracer.Trace(telemetry.Event{
			Kind:        telemetry.KindCuckoo,
			Now:         now,
			Pipe:        s.pipe,
			CuckooOp:    telemetry.CuckooInsert,
			KeyHash:     keyHash,
			Digest:      digest,
			Version:     ver,
			Moves:       moves,
			Relocations: s.conn.Relocations - relocBefore,
			OK:          err == nil,
			Len:         s.conn.Len(),
			Capacity:    s.conn.Capacity(),
			Effective:   s.conn.EffectiveCapacity(),
		})
	}
	return err
}

// DeleteConn removes tuple's entry; it reports whether one existed.
// Telemetry is stamped at virtual time zero; use DeleteConnAt when the
// caller knows when the CPU performed the delete.
func (s *Switch) DeleteConn(t netproto.FiveTuple) bool {
	e, ok := s.conn.FindDigest(s.ConnHashes(t))
	return ok && s.DeleteConnAt(0, e, t)
}

// DeleteConnAt is the deletion itself: e is the connection's entry as the
// switch software's exact probe just returned it, which already says where
// it sits and what the telemetry event reports; the tuple only selects the
// VIP's series. It reports whether the entry was still there.
func (s *Switch) DeleteConnAt(now simtime.Time, e cuckoo.Entry, t netproto.FiveTuple) bool {
	if s.conn.DeleteAt(e.Handle()) != nil {
		return false
	}
	if s.tracer != nil {
		if vs, live := s.vips[VIPOf(t)]; live && vs.tel != nil {
			vs.tel.ConnsEnded.Inc()
		}
		s.tracer.Trace(telemetry.Event{
			Kind:      telemetry.KindCuckoo,
			Now:       now,
			Pipe:      s.pipe,
			CuckooOp:  telemetry.CuckooDelete,
			KeyHash:   e.KeyHash,
			Digest:    e.Digest,
			OK:        true,
			Len:       s.conn.Len(),
			Capacity:  s.conn.Capacity(),
			Effective: s.conn.EffectiveCapacity(),
		})
	}
	return true
}

// LookupConn returns the installed version for tuple, resolving by the
// CPU's exact shadow (not subject to digest false positives).
func (s *Switch) LookupConn(t netproto.FiveTuple) (uint32, bool) {
	keyHash, digest := s.ConnHashes(t)
	ver, h, ok := s.conn.Lookup(keyHash, digest)
	if !ok {
		return 0, false
	}
	if kh, err := s.conn.EntryKeyHash(h); err != nil || kh != keyHash {
		return 0, false
	}
	return ver, true
}

// ResolveSYNCollision is the CPU handler for VerdictRedirectSYNConn: the
// SYN of connection t matched entry h. If h's shadow shows a different
// connection, the existing entry is relocated to another stage so the two
// keys separate; the caller then proceeds to learn/insert t normally.
// It returns true if a genuine false positive was found and fixed.
func (s *Switch) ResolveSYNCollision(t netproto.FiveTuple, res Result) (bool, error) {
	return s.ResolveSYNCollisionAt(0, t, res)
}

// ResolveSYNCollisionAt is ResolveSYNCollision with an explicit virtual
// time for the relocation (migration) telemetry event.
func (s *Switch) ResolveSYNCollisionAt(now simtime.Time, t netproto.FiveTuple, res Result) (bool, error) {
	kh, err := s.conn.EntryKeyHash(res.ConnHandle)
	if err != nil {
		return false, err
	}
	if kh == res.KeyHash {
		// Retransmitted SYN of an already-installed connection: no action.
		return false, nil
	}
	relocBefore := s.conn.Relocations
	relocErr := s.conn.Relocate(res.ConnHandle)
	if s.tracer != nil {
		s.tracer.Trace(telemetry.Event{
			Kind:        telemetry.KindCuckoo,
			Now:         now,
			Pipe:        s.pipe,
			CuckooOp:    telemetry.CuckooRelocate,
			KeyHash:     kh, // the aliasing entry that migrated
			Digest:      res.Digest,
			Moves:       0,
			Relocations: s.conn.Relocations - relocBefore,
			OK:          relocErr == nil,
			Len:         s.conn.Len(),
			Capacity:    s.conn.Capacity(),
			Effective:   s.conn.EffectiveCapacity(),
		})
	}
	if relocErr != nil {
		return false, fmt.Errorf("dataplane: relocating collided entry: %w", relocErr)
	}
	return true, nil
}

func (s *Switch) checkVer(ver uint32) error {
	if ver >= 1<<uint(s.cfg.VersionBits) {
		return fmt.Errorf("dataplane: version %d exceeds %d-bit field", ver, s.cfg.VersionBits)
	}
	return nil
}

func clonePool(pool []DIP) []DIP { return append([]DIP(nil), pool...) }
