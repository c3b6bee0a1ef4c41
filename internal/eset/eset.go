// Package eset provides compact concrete sets of int64 elements stored as
// sorted, non-overlapping, half-open runs [Lo, Hi).
//
// Data spaces of array-intensive processes are unions of a few contiguous
// (or small-strided) ranges of linearized array elements, so run-length
// representation makes the paper's sharing-set cardinalities
// |SS_k,p| = |DS_k ∩ DS_p| cheap: intersection is a linear merge of runs
// instead of an element-wise scan.
package eset

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Run is a half-open interval [Lo, Hi) of int64 elements.
type Run struct {
	Lo, Hi int64
}

// Len returns the number of elements in the run.
func (r Run) Len() int64 { return r.Hi - r.Lo }

// Set is an immutable set of int64 elements. The zero value is the empty
// set and is ready to use.
type Set struct {
	runs []Run // sorted by Lo, pairwise disjoint and non-adjacent
}

// Empty returns the empty set.
func Empty() *Set { return &Set{} }

// FromRuns builds a set from arbitrary (possibly overlapping, unsorted)
// runs. Runs with Hi <= Lo are ignored.
func FromRuns(runs ...Run) *Set {
	b := NewBuilder()
	for _, r := range runs {
		b.AddRange(r.Lo, r.Hi)
	}
	return b.Build()
}

// FromSlice builds a set from arbitrary elements.
func FromSlice(elems []int64) *Set {
	b := NewBuilder()
	for _, e := range elems {
		b.Add(e)
	}
	return b.Build()
}

// Builder accumulates elements and ranges, then normalizes them into a Set.
type Builder struct {
	runs []Run
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Add inserts a single element.
func (b *Builder) Add(e int64) { b.runs = append(b.runs, Run{e, e + 1}) }

// AddRange inserts the half-open range [lo, hi). Empty ranges are ignored.
func (b *Builder) AddRange(lo, hi int64) {
	if hi <= lo {
		return
	}
	b.runs = append(b.runs, Run{lo, hi})
}

// Build normalizes the accumulated runs into an immutable Set and resets
// the builder.
func (b *Builder) Build() *Set {
	runs := b.runs
	b.runs = nil
	if len(runs) == 0 {
		return Empty()
	}
	slices.SortFunc(runs, func(a, b Run) int {
		if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
			return c
		}
		return cmp.Compare(a.Hi, b.Hi)
	})
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi { // overlapping or adjacent: coalesce
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return &Set{runs: append([]Run(nil), out...)}
}

// Card returns the number of elements.
func (s *Set) Card() int64 {
	var n int64
	for _, r := range s.runs {
		n += r.Len()
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool { return len(s.runs) == 0 }

// NumRuns returns the number of maximal runs.
func (s *Set) NumRuns() int { return len(s.runs) }

// Runs returns a copy of the normalized runs.
func (s *Set) Runs() []Run { return append([]Run(nil), s.runs...) }

// Contains reports whether e is in the set.
func (s *Set) Contains(e int64) bool {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi > e })
	return i < len(s.runs) && s.runs[i].Lo <= e
}

// Min returns the smallest element; ok is false for the empty set.
func (s *Set) Min() (int64, bool) {
	if len(s.runs) == 0 {
		return 0, false
	}
	return s.runs[0].Lo, true
}

// Max returns the largest element; ok is false for the empty set.
func (s *Set) Max() (int64, bool) {
	if len(s.runs) == 0 {
		return 0, false
	}
	return s.runs[len(s.runs)-1].Hi - 1, true
}

// Bounds returns the half-open bounding interval [min, max+1) of the set;
// ok is false for the empty set. Two sets whose bounds do not overlap are
// provably disjoint, which lets pairwise-intersection sweeps (the sharing
// matrix) reject most pairs in O(1) without a run-level merge.
func (s *Set) Bounds() (Run, bool) {
	if len(s.runs) == 0 {
		return Run{}, false
	}
	return Run{Lo: s.runs[0].Lo, Hi: s.runs[len(s.runs)-1].Hi}, true
}

// Intersect returns the set of elements present in both sets.
func (s *Set) Intersect(o *Set) *Set {
	var out []Run
	i, j := 0, 0
	for i < len(s.runs) && j < len(o.runs) {
		a, b := s.runs[i], o.runs[j]
		lo := maxI64(a.Lo, b.Lo)
		hi := minI64(a.Hi, b.Hi)
		if lo < hi {
			out = append(out, Run{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return &Set{runs: out}
}

// IntersectCard returns |s ∩ o| without materializing the intersection.
func (s *Set) IntersectCard(o *Set) int64 {
	var n int64
	i, j := 0, 0
	for i < len(s.runs) && j < len(o.runs) {
		a, b := s.runs[i], o.runs[j]
		lo := maxI64(a.Lo, b.Lo)
		hi := minI64(a.Hi, b.Hi)
		if lo < hi {
			n += hi - lo
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// Union returns the set of elements present in either set.
func (s *Set) Union(o *Set) *Set {
	b := NewBuilder()
	for _, r := range s.runs {
		b.AddRange(r.Lo, r.Hi)
	}
	for _, r := range o.runs {
		b.AddRange(r.Lo, r.Hi)
	}
	return b.Build()
}

// Subtract returns the elements of s not present in o.
func (s *Set) Subtract(o *Set) *Set {
	var out []Run
	j := 0
	for _, a := range s.runs {
		lo := a.Lo
		for j < len(o.runs) && o.runs[j].Hi <= lo {
			j++
		}
		k := j
		for k < len(o.runs) && o.runs[k].Lo < a.Hi {
			b := o.runs[k]
			if b.Lo > lo {
				out = append(out, Run{lo, b.Lo})
			}
			if b.Hi > lo {
				lo = b.Hi
			}
			if lo >= a.Hi {
				break
			}
			k++
		}
		if lo < a.Hi {
			out = append(out, Run{lo, a.Hi})
		}
	}
	return &Set{runs: out}
}

// Equal reports whether both sets contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if len(s.runs) != len(o.runs) {
		return false
	}
	for i := range s.runs {
		if s.runs[i] != o.runs[i] {
			return false
		}
	}
	return true
}

// Elements calls yield for each element in ascending order, stopping early
// if yield returns false.
func (s *Set) Elements(yield func(e int64) bool) {
	for _, r := range s.runs {
		for e := r.Lo; e < r.Hi; e++ {
			if !yield(e) {
				return
			}
		}
	}
}

// Shift returns the set with every element translated by delta.
func (s *Set) Shift(delta int64) *Set {
	runs := make([]Run, len(s.runs))
	for i, r := range s.runs {
		runs[i] = Run{r.Lo + delta, r.Hi + delta}
	}
	return &Set{runs: runs}
}

func (s *Set) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	var parts []string
	for _, r := range s.runs {
		if r.Len() == 1 {
			parts = append(parts, fmt.Sprintf("%d", r.Lo))
		} else {
			parts = append(parts, fmt.Sprintf("[%d,%d)", r.Lo, r.Hi))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
