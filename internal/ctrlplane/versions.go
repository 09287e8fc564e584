package ctrlplane

import (
	"cmp"
	"slices"

	"repro/internal/dataplane"
)

// A VIP's live pool versions (§4.2) are records in vipCtl.vers, in version
// order. Pool updates and warm imports both take a number from allocVersion
// and write the row through writeRow; a version leaves once it is idle.

// poolVersion is one live version of a VIP's DIP pool.
type poolVersion struct {
	ver   uint32
	conns int             // connections pinned to this version
	row   []dataplane.DIP // the DIPPoolTable row: selectDIP picks a DIP by slot
	dead  []bool          // per slot, whether its DIP left service; nil if none did
}

// find returns where version v sits in vc.vers, or where it would go.
func (vc *vipCtl) find(v uint32) (int, bool) {
	return slices.BinarySearchFunc(vc.vers, v, func(p poolVersion, v uint32) int { return cmp.Compare(p.ver, v) })
}

// version returns the record of version v, or nil if v is not live.
func (vc *vipCtl) version(v uint32) *poolVersion {
	if i, ok := vc.find(v); ok {
		return &vc.vers[i]
	}
	return nil
}

// row returns live version v's pool row.
func (vc *vipCtl) row(v uint32) []dataplane.DIP { return vc.version(v).row }

// idle reports whether version p may be retired: it is not current, no
// in-flight update swaps from or to it, no installed connection pins it,
// and no import waits for it in the CPU queue (a retired number may be
// rewritten with another row before the import lands).
func (cp *ControlPlane) idle(vc *vipCtl, p *poolVersion) bool {
	v := p.ver
	if p.conns != 0 || v == vc.curVer || vc.state != updIdle && (v == vc.prevVer || v == vc.pendingNewVer) {
		return false
	}
	for i := 0; i < cp.queue.len(); i++ {
		if pi := cp.queue.at(i); pi.imported && pi.ev.Version == v && dataplane.VIPOf(pi.ev.Tuple) == vc.vip {
			return false
		}
	}
	return true
}

// allocVersion returns a version number for a new row: the ring's head,
// else an idle version, retired on the spot. ok is false when every version
// is pinned — the paper's "very rare" exhaustion.
func (cp *ControlPlane) allocVersion(vc *vipCtl) (v uint32, ok bool) {
	for _, p := range vc.vers {
		if len(vc.freeVers) > 0 || cp.retireIfIdle(vc, p.ver) {
			break
		}
	}
	if len(vc.freeVers) == 0 {
		cp.metrics.VersionExhaustions++
		return 0, false
	}
	v, vc.freeVers = vc.freeVers[0], vc.freeVers[1:]
	return v, true
}

// writeRow makes row version v of vc's pool, in its record and in the
// DIPPoolTable. A live v is reused: it keeps the connections pinned to it
// and its dead slots are filled. Any other v is a fresh allocation.
func (cp *ControlPlane) writeRow(vc *vipCtl, v uint32, row []dataplane.DIP) {
	if i, live := vc.find(v); live {
		vc.vers[i].row, vc.vers[i].dead = clone(row), nil
		cp.metrics.VersionReuses++
	} else {
		vc.vers = slices.Insert(vc.vers, i, poolVersion{ver: v, row: clone(row)})
		cp.metrics.VersionAllocs++
		vc.versionsAllocated++
	}
	vc.maxActive = max(vc.maxActive, len(vc.vers))
	if err := cp.sw.WritePool(vc.vip, v, row); err != nil {
		panic("ctrlplane: WritePool: " + err.Error())
	}
}

// retireIfIdle returns version v of vc to the ring, deleting its record
// and DIPPoolTable row, if it is live and idle.
func (cp *ControlPlane) retireIfIdle(vc *vipCtl, v uint32) bool {
	i, live := vc.find(v)
	if !live || !cp.idle(vc, &vc.vers[i]) {
		return false
	}
	vc.vers = slices.Delete(vc.vers, i, i+1)
	vc.freeVers = append(vc.freeVers, v)
	_ = cp.sw.DeletePool(vc.vip, v)
	return true
}

// sameMembers reports whether two pools hold the same DIPs as multisets:
// the same backends, not necessarily the same mapping (slices.Equal asks
// that).
func sameMembers(a, b []dataplane.DIP) bool {
	removed, added := poolDiff(a, b)
	return len(removed)+len(added) == 0
}
