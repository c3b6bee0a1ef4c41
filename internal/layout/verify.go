package layout

import (
	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

// VerifyGroup describes one process for pressure verification: the
// per-array union footprints plus how many references the process issues
// to each array (the number of concurrent access streams).
type VerifyGroup struct {
	FP   Footprints
	Refs map[*prog.Array]int
}

// Pressure measures the static lockstep-thrash potential of a layout.
// For every process and cache set, the number of simultaneously live
// blocks is estimated as Σ_arrays min(refs to the array, the array's
// footprint depth in the set): each reference is a stream contributing
// one live block, and a single stream walking a deep array revisits a
// set only after a full stride (no thrash on its own). Pressure is the
// excess of that live estimate over the associativity, summed. Several
// bands of one array squeezed into the same sets by a re-layout are
// visible here whenever several references walk them in lockstep — the
// damage mode the pairwise matrix cannot see. Like Conflicts, it reads
// the closed-form address formula of every grouped array.
func Pressure(groups []VerifyGroup, am AddressMap, geom cache.Geometry) (int64, error) {
	v, err := newVerifier(groups, am, geom)
	if err != nil {
		return 0, err
	}
	return v.total, nil
}

// SelectRelayoutVerified runs Figure 5's greedy pair selection with a
// per-step verification: a candidate bank assignment is kept only if it
// strictly lowers the Pressure over the verification groups. This guards
// against the transform's side effect of doubling an array's set depth
// within its half of the cache, which the paper's unverified greedy can
// turn into new conflicts.
//
// The verification groups should be the single-process co-access groups:
// arrays referenced in lockstep by one process thrash on every iteration
// when they overflow a set, which is the damage mode worth vetoing. The
// selection matrix m may additionally include successive-pair groups,
// whose conflicts are bounded one-time refills rather than per-iteration
// thrash. Returns the accepted banks and the before/after pressure.
//
// A candidate moves at most two arrays, so it is priced incrementally:
// only the groups holding a moved array are re-summed, from cached
// per-placement histograms, and no relaid address map is built. The
// result equals re-evaluating Pressure over ApplyRelayout(base, geom,
// candidate) for every candidate.
func SelectRelayoutVerified(verifyGroups []VerifyGroup, m *ConflictMatrix, base AddressMap,
	threshold int64, geom cache.Geometry) (map[*prog.Array]int64, int64, int64, error) {

	v, err := newVerifier(verifyGroups, base, geom)
	if err != nil {
		return nil, 0, 0, err
	}
	before := v.total
	// An invalid page only matters once a candidate needs relaying out.
	check, checkErr := newRelayoutCheck(base, geom)
	halfC := geom.PageSize() / 2
	banks := make(map[*prog.Array]int64)
	n := len(m.arrays)
	done := make([]bool, n) // done[i]: m.arrays[i] has an accepted bank
	vals := make([][]int64, n)
	for i := range vals {
		vals[i] = append([]int64(nil), m.vals[i]...)
	}
	for {
		bi, bj, best := -1, -1, threshold
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if done[i] && done[j] {
					continue
				}
				if vals[i][j] > best {
					bi, bj, best = i, j, vals[i][j]
				}
			}
		}
		if bi < 0 {
			return banks, before, v.total, nil
		}
		vals[bi][bj] = 0
		vals[bj][bi] = 0
		ai, aj := m.arrays[bi], m.arrays[bj]

		var moves []placement
		switch {
		case done[bi] && !done[bj]:
			moves = []placement{{aj, halfC - banks[ai]}}
		case done[bj] && !done[bi]:
			moves = []placement{{ai, halfC - banks[aj]}}
		default:
			moves = []placement{{ai, 0}, {aj, halfC}}
		}
		if checkErr != nil {
			return nil, 0, 0, checkErr
		}
		for _, mv := range moves {
			if err := check.bank(mv.arr, mv.bank); err != nil {
				return nil, 0, 0, err
			}
		}
		p, err := v.apply(moves, false)
		if err != nil {
			return nil, 0, 0, err
		}
		if p < v.total {
			if _, err := v.apply(moves, true); err != nil {
				return nil, 0, 0, err
			}
			for _, mv := range moves {
				banks[mv.arr] = mv.bank
			}
			done[bi], done[bj] = true, true
		}
	}
}

// placement puts an array at a bank of its relaid region (0 or C/2), or
// at its base-layout address when bank is basePlacement.
type placement struct {
	arr  *prog.Array
	bank int64
}

const basePlacement = -1

// histKey identifies one clamped depth histogram. Groups that share a
// data-space footprint and stream count share the histogram.
type histKey struct {
	arr     *prog.Array
	fp      *eset.Set
	streams int64
	bank    int64
}

// verifier holds the pressure of a bank assignment over verification
// groups, per group, so that moving one array re-sums only the groups
// that reference it.
//
// A histogram depends only on the array's own placement: ApplyRelayout
// starts every relaid region on a multiple of the cache page C =
// NumSets·BlockSize, so a relaid array occupies the same sets as under
// AddrFormula{Page: C, Bank: bank} from address 0, whatever else moves.
type verifier struct {
	base    AddressMap
	geom    cache.Geometry
	groups  []VerifyGroup
	live    [][]int64 // per group and set: Σ over arrays of clamped depth
	press   []int64   // per group: Σ over sets of live above the ways
	total   int64
	byArray map[*prog.Array][]int // groups holding each array, ascending
	hists   map[histKey][]int64
	work    []int64 // candidate live counts of one group
}

func newVerifier(groups []VerifyGroup, base AddressMap, geom cache.Geometry) (*verifier, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	n := geom.NumSets()
	v := &verifier{
		base:    base,
		geom:    geom,
		groups:  groups,
		live:    make([][]int64, len(groups)),
		press:   make([]int64, len(groups)),
		byArray: make(map[*prog.Array][]int),
		hists:   make(map[histKey][]int64),
		work:    make([]int64, n),
	}
	for gi, g := range groups {
		live := make([]int64, n)
		for a := range g.FP {
			h, err := v.histogram(g, a, basePlacement)
			if err != nil {
				return nil, err
			}
			for s, d := range h {
				live[s] += d
			}
			v.byArray[a] = append(v.byArray[a], gi)
		}
		v.live[gi] = live
		v.press[gi] = v.excess(live)
		v.total += v.press[gi]
	}
	return v, nil
}

// histogram returns min(depth[s], streams) of array a in group g at the
// given placement, where depth[s] counts a's distinct footprint blocks
// in set s and streams is the group's reference count to a (at least 1).
func (v *verifier) histogram(g VerifyGroup, a *prog.Array, bank int64) ([]int64, error) {
	fp := g.FP[a]
	streams := max(int64(g.Refs[a]), 1)
	k := histKey{arr: a, fp: fp, streams: streams, bank: bank}
	if h, ok := v.hists[k]; ok {
		return h, nil
	}
	f := AddrFormula{Elem: a.Elem, Page: v.geom.PageSize(), Bank: bank}
	if bank == basePlacement {
		var err error
		if f, err = formulaOf(v.base, a); err != nil {
			return nil, err
		}
	}
	h := blockHistogram(f, fp, v.geom)
	for s, d := range h {
		h[s] = min(d, streams)
	}
	v.hists[k] = h
	return h, nil
}

// excess sums live's overflow of the associativity.
func (v *verifier) excess(live []int64) int64 {
	w := int64(v.geom.Assoc)
	var p int64
	for _, l := range live {
		if l > w {
			p += l - w
		}
	}
	return p
}

// apply returns the total pressure with moves applied, re-summing only
// the groups that hold a moved array. With commit it also makes moves
// the verifier's state. Moved arrays leave their base placement: the
// greedy never moves an array twice.
func (v *verifier) apply(moves []placement, commit bool) (int64, error) {
	total := v.total
	for mi, mv := range moves {
	groups:
		for _, gi := range v.byArray[mv.arr] {
			g := v.groups[gi]
			for _, earlier := range moves[:mi] {
				if _, ok := g.FP[earlier.arr]; ok {
					continue groups // already re-summed for the earlier move
				}
			}
			live := v.work
			copy(live, v.live[gi])
			for _, m := range moves[mi:] {
				if _, ok := g.FP[m.arr]; !ok {
					continue
				}
				old, err := v.histogram(g, m.arr, basePlacement)
				if err != nil {
					return 0, err
				}
				nu, err := v.histogram(g, m.arr, m.bank)
				if err != nil {
					return 0, err
				}
				for s := range live {
					live[s] += nu[s] - old[s]
				}
			}
			p := v.excess(live)
			total += p - v.press[gi]
			if commit {
				copy(v.live[gi], live)
				v.press[gi] = p
			}
		}
	}
	if commit {
		v.total = total
	}
	return total, nil
}
