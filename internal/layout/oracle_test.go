package layout

import (
	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

// This file holds the element-wise reference implementations that the
// interval-arithmetic production code is checked against: block counting
// by walking every element through a set of seen blocks, the pressure
// built on it, the verified greedy that re-evaluates that pressure over
// a freshly relaid layout for every candidate, and the paper's
// unverified Figure 5 greedy.

// elementCounts counts, per cache set, the distinct blocks touched by
// fp's elements under am, one element at a time.
func elementCounts(a *prog.Array, fp *eset.Set, am AddressMap, geom cache.Geometry) []int64 {
	numSets := geom.NumSets()
	counts := make([]int64, numSets)
	blocks := make(map[int64]bool)
	fp.Elements(func(e int64) bool {
		addr := am.Addr(a, e)
		first := geom.BlockOf(addr)
		last := geom.BlockOf(addr + a.Elem - 1)
		for blk := first; blk <= last; blk++ {
			if !blocks[blk] {
				blocks[blk] = true
				counts[blk%numSets]++
			}
		}
		return true
	})
	return counts
}

// elementPressure is Pressure computed from elementCounts.
func elementPressure(groups []VerifyGroup, am AddressMap, geom cache.Geometry) (int64, error) {
	if err := geom.Validate(); err != nil {
		return 0, err
	}
	w := int64(geom.Assoc)
	var pressure int64
	for _, g := range groups {
		live := make([]int64, geom.NumSets())
		for a, fp := range g.FP {
			depth := elementCounts(a, fp, am, geom)
			streams := int64(g.Refs[a])
			if streams <= 0 {
				streams = 1
			}
			for s, d := range depth {
				live[s] += min(d, streams)
			}
		}
		for _, n := range live {
			if n > w {
				pressure += n - w
			}
		}
	}
	return pressure, nil
}

// selectRelayoutVerifiedOracle is SelectRelayoutVerified evaluating every
// candidate as elementPressure over ApplyRelayout of the whole candidate
// assignment.
func selectRelayoutVerifiedOracle(verifyGroups []VerifyGroup, m *ConflictMatrix, base AddressMap,
	threshold int64, geom cache.Geometry) (map[*prog.Array]int64, int64, int64, error) {

	halfC := geom.PageSize() / 2
	banks := make(map[*prog.Array]int64)
	before, err := elementPressure(verifyGroups, base, geom)
	if err != nil {
		return nil, 0, 0, err
	}
	cur := before
	n := len(m.arrays)
	vals := make([][]int64, n)
	for i := range vals {
		vals[i] = append([]int64(nil), m.vals[i]...)
	}
	for {
		bi, bj, best := -1, -1, threshold
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				_, iDone := banks[m.arrays[i]]
				_, jDone := banks[m.arrays[j]]
				if iDone && jDone {
					continue
				}
				if vals[i][j] > best {
					bi, bj, best = i, j, vals[i][j]
				}
			}
		}
		if bi < 0 {
			return banks, before, cur, nil
		}
		vals[bi][bj] = 0
		vals[bj][bi] = 0
		ai, aj := m.arrays[bi], m.arrays[bj]

		candidate := make(map[*prog.Array]int64, len(banks)+2)
		for a, b := range banks {
			candidate[a] = b
		}
		_, iDone := banks[ai]
		_, jDone := banks[aj]
		switch {
		case iDone && !jDone:
			candidate[aj] = halfC - banks[ai]
		case jDone && !iDone:
			candidate[ai] = halfC - banks[aj]
		default:
			candidate[ai] = 0
			candidate[aj] = halfC
		}
		rl, err := ApplyRelayout(base, geom, candidate)
		if err != nil {
			return nil, 0, 0, err
		}
		p, err := elementPressure(verifyGroups, rl, geom)
		if err != nil {
			return nil, 0, 0, err
		}
		if p < cur {
			banks = candidate
			cur = p
		}
	}
}

// RelevantFunc optionally restricts which pairs SelectRelayout may pick.
// With the co-access construction of Conflicts the matrix is already
// restricted to Figure 5's eligible pairs, so nil is the common choice.
type RelevantFunc func(a, b *prog.Array) bool

// SelectRelayout runs the greedy algorithm of Figure 5 without
// verification: repeatedly pick the array pair with the maximum conflict
// weight above the threshold and assign the two arrays to opposite banks
// (0 and C/2). Arrays already assigned keep their bank; a pair in which
// both arrays are already assigned is skipped (their layouts were fixed
// by an earlier, heavier conflict). Returns the bank assignment to feed
// ApplyRelayout.
func SelectRelayout(m *ConflictMatrix, relevant RelevantFunc, threshold int64, geom cache.Geometry) map[*prog.Array]int64 {
	halfC := geom.PageSize() / 2
	banks := make(map[*prog.Array]int64)
	n := len(m.arrays)
	// Work on a copy so the caller's matrix is untouched.
	vals := make([][]int64, n)
	for i := range vals {
		vals[i] = append([]int64(nil), m.vals[i]...)
	}
	for {
		// Select the maximal remaining pair where at least one array is
		// not yet re-laid-out.
		bi, bj, best := -1, -1, threshold
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				_, iDone := banks[m.arrays[i]]
				_, jDone := banks[m.arrays[j]]
				if iDone && jDone {
					continue
				}
				if vals[i][j] > best {
					bi, bj, best = i, j, vals[i][j]
				}
			}
		}
		if bi < 0 {
			return banks
		}
		vals[bi][bj] = 0
		vals[bj][bi] = 0
		ai, aj := m.arrays[bi], m.arrays[bj]
		if relevant != nil && !relevant(ai, aj) {
			continue
		}
		_, iDone := banks[ai]
		_, jDone := banks[aj]
		switch {
		case iDone && !jDone:
			banks[aj] = halfC - banks[ai] // the opposite bank
		case jDone && !iDone:
			banks[ai] = halfC - banks[aj]
		default:
			banks[ai] = 0
			banks[aj] = halfC
		}
	}
}
