package layout

import (
	"fmt"

	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

// formulaOf returns the closed-form address formula of a in am. The
// conflict and pressure analyses count blocks arithmetically from it.
func formulaOf(am AddressMap, a *prog.Array) (AddrFormula, error) {
	if f, ok := am.CompileAddr(a); ok {
		return f, nil
	}
	return AddrFormula{}, fmt.Errorf("layout: array %s has no closed-form address in %T", a.Name, am)
}

// blockHistogram returns, for every cache set, the number of distinct
// cache blocks that the elements of fp occupy under the address formula
// f (an element covers the f.Elem bytes from its address on).
//
// fp is a list of element runs and f is piecewise linear: a run is one
// contiguous byte range under a linear formula, and one range per
// half-page chunk under the interleaved one, where the last element of
// a chunk may run on into the following half page. The occupied blocks
// are therefore a union of block intervals, produced here in ascending
// order and merged on the fly. An interval of L blocks adds L/NumSets to
// every set plus one to the L mod NumSets sets from its first block on,
// so the histogram costs O(intervals + sets) and visits no element.
// Addresses must be non-negative.
func blockHistogram(f AddrFormula, fp *eset.Set, geom cache.Geometry) []int64 {
	n := geom.NumSets()
	bs := geom.BlockSize
	diff := make([]int64, n+1) // per-set start/end marks of the remainders
	var wraps int64            // full passes over all sets
	first, last := int64(0), int64(-1)
	flush := func() {
		l := last - first + 1
		if l <= 0 {
			return
		}
		wraps += l / n
		if r := l % n; r > 0 {
			s := first % n
			diff[s]++
			if s+r <= n {
				diff[s+r]--
			} else {
				diff[n]--
				diff[0]++
				diff[s+r-n]--
			}
		}
	}
	// add marks the byte range [lo, hi); ranges arrive sorted by lo.
	add := func(lo, hi int64) {
		b0, b1 := lo/bs, (hi-1)/bs
		if last >= first && b0 <= last+1 {
			if b1 > last {
				last = b1
			}
			return
		}
		flush()
		first, last = b0, b1
	}
	for _, r := range fp.Runs() {
		if f.Page == 0 {
			add(f.Base+r.Lo*f.Elem, f.Base+r.Hi*f.Elem)
			continue
		}
		half := f.Page / 2
		for e := r.Lo; e < r.Hi; {
			// Elements e..end-1 start in e's half-page chunk q; the
			// formula places them contiguously.
			q := e * f.Elem / half
			end := min(r.Hi, ((q+1)*half+f.Elem-1)/f.Elem)
			add(f.Addr(e), f.Addr(end-1)+f.Elem)
			e = end
		}
	}
	flush()
	counts := diff[:n]
	var run int64
	for s := range counts {
		run += counts[s]
		counts[s] = run + wraps
	}
	return counts
}
