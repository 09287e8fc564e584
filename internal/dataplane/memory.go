package dataplane

// Memory layout models for ConnTable and DIPPoolTable, used by the
// scalability experiments (Figures 12 and 14) and by capacity planning in
// the netwide package. All sizes follow §4.2/§6.1 of the paper:
//
//   - naive layout: full 5-tuple match key (13 B IPv4 / 37 B IPv6) plus the
//     DIP as action data (6 B IPv4 / 18 B IPv6) plus 2 B packing overhead;
//   - digest-only: a 16- or 24-bit digest replaces the key, DIP stays;
//   - digest+version: digest plus a 6-bit version, 6 bits of overhead,
//     packed four-per-112-bit-word (28-bit entries), with the DIP pools
//     moved into DIPPoolTable (one row per active version).

// Layout describes one ConnTable entry encoding.
type Layout struct {
	Name      string
	EntryBits int
	// WordPacked: entries are packed into 112-bit SRAM words; otherwise
	// each entry occupies whole bytes.
	WordPacked bool
}

// LayoutNaive is the strawman layout storing full key and full DIP.
func LayoutNaive(ipv6 bool) Layout {
	key, action := 13, 6
	if ipv6 {
		key, action = 37, 18
	}
	return Layout{Name: "naive", EntryBits: (key + action + 2) * 8}
}

// LayoutDigestOnly replaces the match key with a digest but keeps the DIP
// as action data.
func LayoutDigestOnly(digestBits int, ipv6 bool) Layout {
	action := 6
	if ipv6 {
		action = 18
	}
	return Layout{Name: "digest", EntryBits: digestBits + action*8 + 6}
}

// LayoutDigestVersion is the SilkRoad layout: digest match, version action.
func LayoutDigestVersion(digestBits, versionBits int) Layout {
	return Layout{Name: "digest+version", EntryBits: digestBits + versionBits + 6, WordPacked: true}
}

// TableBytes returns the SRAM bytes n entries occupy under l, including
// word-packing effects: packed layouts round to whole 112-bit words; others
// round each entry to whole bytes.
func (l Layout) TableBytes(n int) int {
	if n <= 0 {
		return 0
	}
	if l.WordPacked {
		perWord := 112 / l.EntryBits
		if perWord < 1 {
			perWord = 1
		}
		words := (n + perWord - 1) / perWord
		return words * 112 / 8
	}
	return n * ((l.EntryBits + 7) / 8)
}

// DIPPoolTableBytes returns the SRAM cost of storing every active pool
// version: one row per (vip, version) holding len(pool) DIP entries.
func DIPPoolTableBytes(totalPoolEntries int, ipv6 bool) int {
	per := 6
	if ipv6 {
		per = 18
	}
	return totalPoolEntries * per
}

// MemoryBreakdown reports the current SRAM consumption of a live switch.
type MemoryBreakdown struct {
	ConnTableBytes   int
	DIPPoolBytes     int
	TransitBytes     int
	LearnFilterBytes int
	VIPTableBytes    int
}

// Total sums all components.
func (m MemoryBreakdown) Total() int {
	return m.ConnTableBytes + m.DIPPoolBytes + m.TransitBytes + m.LearnFilterBytes + m.VIPTableBytes
}

// Add accumulates o into m (per-pipe to chip-level aggregation).
func (m *MemoryBreakdown) Add(o MemoryBreakdown) {
	m.ConnTableBytes += o.ConnTableBytes
	m.DIPPoolBytes += o.DIPPoolBytes
	m.TransitBytes += o.TransitBytes
	m.LearnFilterBytes += o.LearnFilterBytes
	m.VIPTableBytes += o.VIPTableBytes
}

// Memory returns the switch's current SRAM breakdown. ConnTable reports
// allocated words (capacity), DIPPoolTable the live rows.
func (s *Switch) Memory() MemoryBreakdown {
	m := MemoryBreakdown{
		ConnTableBytes:   s.conn.SRAMBytes(),
		LearnFilterBytes: s.cfg.LearnFilterCapacity * 16,
	}
	if s.transit != nil {
		m.TransitBytes = s.transit.SizeBytes()
	}
	for _, vs := range s.vips {
		// VIPTable row: VIP key (19 B IPv6 worst case) + version + flags.
		m.VIPTableBytes += 24
		for _, pool := range vs.pools {
			for _, d := range pool {
				if d.Addr().Is4() {
					m.DIPPoolBytes += 6
				} else {
					m.DIPPoolBytes += 18
				}
			}
		}
	}
	return m
}

// ProvisionedBytes estimates the SRAM a SilkRoad switch must provision for
// a workload of nConns connections (ConnTable sized at 90% occupancy,
// word-packed) plus pools totalling poolEntries DIPs across all active
// versions. This is the Figure 12 model.
func ProvisionedBytes(nConns int, digestBits, versionBits int, poolEntries int, ipv6 bool) int {
	l := LayoutDigestVersion(digestBits, versionBits)
	slots := nConns * 10 / 9 // 90% occupancy target
	return l.TableBytes(slots) + DIPPoolTableBytes(poolEntries, ipv6) + 256
}
