// Package ecmp implements Maglev consistent hashing, the member selection
// of the SLB baseline's VIPTable (Maglev §3.4). A connection key, already
// hashed to 64 bits, maps to one member of a pool; what matters is how
// many existing connections get remapped when the pool changes — the
// quantity that drives the SLB baseline's PCC violations in Figures 5, 16
// and 17.
//
// SilkRoad itself needs no consistent hash: it pins connections in the
// ConnTable and versions DIP pools. The fleet's upstream spray is a fixed
// bucket table (silkroad.Cluster).
package ecmp

import (
	"repro/internal/hashing"
)

// Maglev is Google's consistent hash (Maglev §3.4): each member generates a
// permutation of table slots from (offset, skip) hashes; members take turns
// claiming their next preferred empty slot until the table fills. Lookups
// are O(1) and membership changes disturb a near-minimal fraction of keys.
type Maglev struct {
	members []string
	table   []int
	m       uint64 // table size (prime)
	seed    uint64
}

// SmallM and BigM are standard Maglev table sizes.
const (
	SmallM = 65537
	BigM   = 655373
)

// NewMaglev builds a Maglev table of size m (must be prime and > #members).
func NewMaglev(members []string, m uint64, seed uint64) *Maglev {
	if len(members) == 0 {
		panic("ecmp: empty member list")
	}
	if uint64(len(members)) >= m {
		panic("ecmp: maglev table smaller than member count")
	}
	g := &Maglev{members: append([]string(nil), members...), m: m, seed: seed}
	g.populate()
	return g
}

// populate builds the lookup table from the current member list.
func (g *Maglev) populate() {
	n := len(g.members)
	offset := make([]uint64, n)
	skip := make([]uint64, n)
	next := make([]uint64, n)
	for i, name := range g.members {
		b := []byte(name)
		offset[i] = hashing.Hash64(g.seed^0x0ff5e7, b) % g.m
		skip[i] = hashing.Hash64(g.seed^0x5c1b, b)%(g.m-1) + 1
	}
	table := make([]int, g.m)
	for i := range table {
		table[i] = -1
	}
	filled := uint64(0)
	for filled < g.m {
		for i := 0; i < n; i++ {
			// Walk member i's permutation to its next empty slot.
			for {
				c := (offset[i] + next[i]*skip[i]) % g.m
				next[i]++
				if table[c] == -1 {
					table[c] = i
					filled++
					break
				}
			}
			if filled == g.m {
				break
			}
		}
	}
	g.table = table
}

// Select returns the index, into the current member list, chosen for key.
func (g *Maglev) Select(key uint64) int {
	return g.table[hashing.HashUint64(g.seed, key)%g.m]
}

// SetMembers rebuilds the table for a new member list. Member indices refer
// to the new list.
func (g *Maglev) SetMembers(members []string) {
	if len(members) == 0 {
		panic("ecmp: empty member list")
	}
	if uint64(len(members)) >= g.m {
		panic("ecmp: maglev table smaller than member count")
	}
	g.members = append([]string(nil), members...)
	g.populate()
}
