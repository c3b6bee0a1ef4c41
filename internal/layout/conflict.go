package layout

import (
	"fmt"
	"sort"
	"strings"

	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

// Footprints maps each array to the set of linear element indices
// actually touched (from sharing.DataSpace computations).
type Footprints map[*prog.Array]*eset.Set

// Merge unions o into a copy of f.
func (f Footprints) Merge(o Footprints) Footprints {
	out := make(Footprints, len(f)+len(o))
	for a, s := range f {
		out[a] = s
	}
	for a, s := range o {
		if cur, ok := out[a]; ok {
			out[a] = cur.Union(s)
		} else {
			out[a] = s
		}
	}
	return out
}

// ConflictMatrix estimates, for every pair of arrays, how severely they
// fight over cache sets under a given layout (the paper's "conflict
// matrix" M of Figure 5).
//
// The matrix is built from co-access groups: the arrays touched by one
// process, or by two processes scheduled successively on the same core —
// exactly the pairs Figure 5 declares eligible for re-layouting. Within
// a group, for each cache set s let n_i[s] be the number of distinct
// blocks of array i's footprint mapping to s. A set is a thrash point
// when the group's combined residency exceeds the associativity
// (Σ n_i[s] > W): every array pair present there then accumulates
// min(n_i[s], n_j[s]). Pairs never co-accessed stay at zero, so the
// eligibility test of Figure 5 is implicit in the matrix.
type ConflictMatrix struct {
	arrays []*prog.Array
	pos    map[*prog.Array]int
	vals   [][]int64
}

// Conflicts builds the conflict matrix from co-access groups under the
// address map and cache geometry. Block counts are taken arithmetically
// from the map's AddrFormula, so am must know every array of a group
// with two or more arrays.
func Conflicts(groups []Footprints, am AddressMap, geom cache.Geometry) (*ConflictMatrix, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	// Collect the universe of arrays (deterministic order by name).
	universe := make(map[*prog.Array]bool)
	for _, g := range groups {
		for a := range g {
			universe[a] = true
		}
	}
	arrays := make([]*prog.Array, 0, len(universe))
	for a := range universe {
		arrays = append(arrays, a)
	}
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].Name < arrays[j].Name })

	m := &ConflictMatrix{
		arrays: arrays,
		pos:    make(map[*prog.Array]int, len(arrays)),
		vals:   make([][]int64, len(arrays)),
	}
	for i, a := range arrays {
		m.pos[a] = i
		m.vals[i] = make([]int64, len(arrays))
	}

	numSets := geom.NumSets()
	w := int64(geom.Assoc)
	// Per-set block counts are recomputed per (group, array); memoize by
	// (array, footprint) since groups share data-space sets.
	type key struct {
		arr *prog.Array
		set *eset.Set
	}
	memo := make(map[key][]int64)
	countsOf := func(a *prog.Array, fp *eset.Set) ([]int64, error) {
		k := key{a, fp}
		if c, ok := memo[k]; ok {
			return c, nil
		}
		f, err := formulaOf(am, a)
		if err != nil {
			return nil, err
		}
		counts := blockHistogram(f, fp, geom)
		memo[k] = counts
		return counts, nil
	}

	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		members := make([]*prog.Array, 0, len(g))
		for a := range g {
			members = append(members, a)
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
		perArr := make([][]int64, len(members))
		for i, a := range members {
			c, err := countsOf(a, g[a])
			if err != nil {
				return nil, err
			}
			perArr[i] = c
		}
		for s := int64(0); s < numSets; s++ {
			var total int64
			for i := range members {
				total += perArr[i][s]
			}
			if total <= w {
				continue
			}
			for i := range members {
				ni := perArr[i][s]
				if ni == 0 {
					continue
				}
				for j := i + 1; j < len(members); j++ {
					nj := perArr[j][s]
					if nj == 0 {
						continue
					}
					mi, mj := m.pos[members[i]], m.pos[members[j]]
					c := ni
					if nj < ni {
						c = nj
					}
					m.vals[mi][mj] += c
					m.vals[mj][mi] += c
				}
			}
		}
	}
	return m, nil
}

// Arrays returns the matrix's arrays in order.
func (m *ConflictMatrix) Arrays() []*prog.Array {
	return append([]*prog.Array(nil), m.arrays...)
}

// Conflict returns the conflict weight between two arrays (0 if unknown).
func (m *ConflictMatrix) Conflict(a, b *prog.Array) int64 {
	i, ok := m.pos[a]
	if !ok {
		return 0
	}
	j, ok := m.pos[b]
	if !ok {
		return 0
	}
	return m.vals[i][j]
}

// AverageThreshold returns the paper's default threshold T: the average
// conflict weight across array pairs. The matrix is sparse (most pairs
// are never co-accessed), so the average is taken over pairs with
// non-zero weight; including the zeros would drive T to 0 and invite
// re-layouting of statistically insignificant conflicts. Returns 0 when
// no pair conflicts.
func (m *ConflictMatrix) AverageThreshold() int64 {
	n := len(m.arrays)
	var sum, pairs int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.vals[i][j] > 0 {
				sum += m.vals[i][j]
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / pairs
}

// Total returns the sum of all pairwise conflict weights, used to verify
// that a candidate re-layout actually reduces conflicts.
func (m *ConflictMatrix) Total() int64 {
	var sum int64
	for i := range m.arrays {
		for j := i + 1; j < len(m.arrays); j++ {
			sum += m.vals[i][j]
		}
	}
	return sum
}

func (m *ConflictMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, a := range m.arrays {
		fmt.Fprintf(&b, "%14s", a.Name)
	}
	b.WriteByte('\n')
	for i, a := range m.arrays {
		fmt.Fprintf(&b, "%-10s", a.Name)
		for j := range m.arrays {
			fmt.Fprintf(&b, "%14d", m.vals[i][j])
		}
		if i < len(m.arrays)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
