package presburger

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// ConstraintKind distinguishes inequality from equality constraints.
type ConstraintKind int

const (
	// GE constrains Expr >= 0.
	GE ConstraintKind = iota
	// EQ constrains Expr == 0.
	EQ
)

// Constraint is an affine constraint over the variables of a BasicSet's
// space: Expr >= 0 (GE) or Expr == 0 (EQ).
type Constraint struct {
	Kind ConstraintKind
	Expr LinExpr
}

// GEZero builds the constraint e >= 0.
func GEZero(e LinExpr) Constraint { return Constraint{Kind: GE, Expr: e} }

// EQZero builds the constraint e == 0.
func EQZero(e LinExpr) Constraint { return Constraint{Kind: EQ, Expr: e} }

// Holds reports whether the constraint is satisfied at the point.
func (c Constraint) Holds(pt []int64) bool {
	v := c.Expr.Eval(pt)
	if c.Kind == EQ {
		return v == 0
	}
	return v >= 0
}

func (c Constraint) stringIn(space *Space) string {
	op := ">="
	if c.Kind == EQ {
		op = "="
	}
	return c.Expr.StringIn(space) + " " + op + " 0"
}

// BasicSet is a conjunction of affine constraints over an integer tuple
// space: { x in Z^n : c_1(x) /\ ... /\ c_m(x) }.
type BasicSet struct {
	space *Space
	cons  []Constraint
}

// NewBasicSet builds a set over space from the given constraints.
// Constraint expressions must have width space.Dim().
func NewBasicSet(space *Space, cons ...Constraint) (*BasicSet, error) {
	if space == nil {
		return nil, fmt.Errorf("presburger: nil space")
	}
	for i, c := range cons {
		if c.Expr.Dim() != space.Dim() {
			return nil, fmt.Errorf("presburger: constraint %d width %d != space dim %d", i, c.Expr.Dim(), space.Dim())
		}
	}
	return &BasicSet{space: space, cons: append([]Constraint(nil), cons...)}, nil
}

// MustBasicSet is NewBasicSet that panics on error.
func MustBasicSet(space *Space, cons ...Constraint) *BasicSet {
	b, err := NewBasicSet(space, cons...)
	if err != nil {
		panic(err)
	}
	return b
}

// Rect builds the half-open box { x : lo[i] <= x_i < hi[i] }.
// len(lo) and len(hi) must equal space.Dim().
func Rect(space *Space, lo, hi []int64) (*BasicSet, error) {
	if len(lo) != space.Dim() || len(hi) != space.Dim() {
		return nil, fmt.Errorf("presburger: Rect bounds width %d/%d != space dim %d", len(lo), len(hi), space.Dim())
	}
	n := space.Dim()
	cons := make([]Constraint, 0, 2*n)
	for i := 0; i < n; i++ {
		// x_i - lo_i >= 0
		cons = append(cons, GEZero(Term(n, i, 1).AddConst(-lo[i])))
		// hi_i - 1 - x_i >= 0
		cons = append(cons, GEZero(Term(n, i, -1).AddConst(hi[i]-1)))
	}
	return NewBasicSet(space, cons...)
}

// MustRect is Rect that panics on error.
func MustRect(space *Space, lo, hi []int64) *BasicSet {
	b, err := Rect(space, lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// Space returns the set's variable space.
func (b *BasicSet) Space() *Space { return b.space }

// Constraints returns a copy of the set's constraints.
func (b *BasicSet) Constraints() []Constraint {
	return append([]Constraint(nil), b.cons...)
}

// With returns a new set with additional constraints conjoined.
func (b *BasicSet) With(cons ...Constraint) (*BasicSet, error) {
	all := make([]Constraint, 0, len(b.cons)+len(cons))
	all = append(all, b.cons...)
	all = append(all, cons...)
	return NewBasicSet(b.space, all...)
}

// MustWith is With that panics on error.
func (b *BasicSet) MustWith(cons ...Constraint) *BasicSet {
	s, err := b.With(cons...)
	if err != nil {
		panic(err)
	}
	return s
}

// Intersect returns the conjunction of b and o. Both sets must share an
// equal space (same variable names in the same order).
func (b *BasicSet) Intersect(o *BasicSet) (*BasicSet, error) {
	if !b.space.Equal(o.space) {
		return nil, fmt.Errorf("presburger: intersecting sets over different spaces %v and %v", b.space, o.space)
	}
	return b.With(o.cons...)
}

// Contains reports whether the point satisfies every constraint.
func (b *BasicSet) Contains(pt []int64) bool {
	for _, c := range b.cons {
		if !c.Holds(pt) {
			return false
		}
	}
	return true
}

// AppendKey appends a binary encoding of the set's dimension and
// constraints to buf. Sets with equal encodings hold the same points;
// variable names are not encoded.
func (b *BasicSet) AppendKey(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(b.space.Dim()))
	buf = binary.AppendVarint(buf, int64(len(b.cons)))
	for _, c := range b.cons {
		buf = binary.AppendVarint(buf, int64(c.Kind))
		buf = c.Expr.appendKey(buf)
	}
	return buf
}

func (b *BasicSet) String() string {
	var parts []string
	for _, c := range b.cons {
		parts = append(parts, c.stringIn(b.space))
	}
	return "{" + b.space.String() + ": " + strings.Join(parts, " && ") + "}"
}

// interval is a partially known integer interval used during propagation.
type interval struct {
	lo, hi       int64
	loSet, hiSet bool
}

func (v interval) width() (int64, bool) {
	if !v.loSet || !v.hiSet {
		return 0, false
	}
	if v.hi < v.lo {
		return 0, true
	}
	return v.hi - v.lo + 1, true
}

// geConstraints expands the constraint list so that each EQ contributes a
// pair of GE constraints (e >= 0 and -e >= 0).
func (b *BasicSet) geConstraints() []Constraint {
	ge := make([]Constraint, 0, len(b.cons))
	for _, c := range b.cons {
		if c.Kind == EQ {
			ge = append(ge, GEZero(c.Expr), GEZero(c.Expr.Scale(-1)))
			continue
		}
		ge = append(ge, c)
	}
	return ge
}

const maxPropagationRounds = 64

// Bounds derives per-variable inclusive bounds [lo_i, hi_i] via interval
// constraint propagation. ok is false when some variable remains unbounded
// (the set may be infinite). empty is true when propagation proved the set
// empty (some interval became inverted).
func (b *BasicSet) Bounds() (lo, hi []int64, ok, empty bool) {
	n := b.space.Dim()
	ivs := make([]interval, n)
	ge := b.geConstraints()
	// Variable-free constraints never touch an interval, so check them
	// directly: a constant c >= 0 with c < 0 empties the set.
	for _, c := range ge {
		if c.Expr.IsConst() && c.Expr.K < 0 {
			return nil, nil, true, true
		}
	}
	for round := 0; round < maxPropagationRounds; round++ {
		changed := false
		for _, c := range ge {
			for i, ci := range c.Expr.Coef {
				if ci == 0 {
					continue
				}
				// c_i*x_i >= -K - sum_{j != i} c_j*x_j.
				// A bound valid for every feasible point uses the minimum
				// of the right-hand side over the current box, i.e. the
				// maximum of sum_{j != i} c_j*x_j.
				rhs := -c.Expr.K
				unbounded := false
				for j, cj := range c.Expr.Coef {
					if j == i || cj == 0 {
						continue
					}
					switch {
					case cj > 0 && ivs[j].hiSet:
						rhs -= cj * ivs[j].hi
					case cj < 0 && ivs[j].loSet:
						rhs -= cj * ivs[j].lo
					default:
						unbounded = true
					}
					if unbounded {
						break
					}
				}
				if unbounded {
					continue
				}
				if ci > 0 {
					nl := ceilDiv(rhs, ci)
					if !ivs[i].loSet || nl > ivs[i].lo {
						ivs[i].lo, ivs[i].loSet = nl, true
						changed = true
					}
				} else {
					nh := floorDiv(rhs, ci)
					if !ivs[i].hiSet || nh < ivs[i].hi {
						ivs[i].hi, ivs[i].hiSet = nh, true
						changed = true
					}
				}
			}
		}
		for i := range ivs {
			if ivs[i].loSet && ivs[i].hiSet && ivs[i].lo > ivs[i].hi {
				return nil, nil, true, true
			}
		}
		if !changed {
			break
		}
	}
	lo = make([]int64, n)
	hi = make([]int64, n)
	for i := range ivs {
		if !ivs[i].loSet || !ivs[i].hiSet {
			return nil, nil, false, false
		}
		lo[i], hi[i] = ivs[i].lo, ivs[i].hi
	}
	return lo, hi, true, false
}

// Points enumerates every integer point of the set in lexicographic order,
// calling yield for each. Enumeration stops early if yield returns false.
// The slice passed to yield is reused between calls; copy it to retain.
// Points returns an error when the set cannot be bounded.
func (b *BasicSet) Points(yield func(pt []int64) bool) error {
	last := b.space.Dim() - 1
	return b.Rows(func(pt []int64, lo, hi int64) bool {
		for v := lo; v < hi; v++ {
			pt[last] = v
			if !yield(pt) {
				return false
			}
		}
		return true
	})
}

// Rows enumerates the set one innermost row at a time: the outer n−1
// coordinates in the same lexicographic order as Points, and for each
// prefix the non-empty half-open interval [lo, hi) of the innermost
// coordinate. Concatenating the rows' points reproduces Points exactly.
// The slice passed to yield has the full width n: its first n−1 entries
// hold the prefix and its last entry is scratch the caller may write
// (to evaluate expressions at points of the row). It is reused between
// calls. Enumeration stops early if yield returns false. Rows returns an
// error when the set cannot be bounded.
func (b *BasicSet) Rows(yield func(pt []int64, lo, hi int64) bool) error {
	lo, hi, ok, empty := b.Bounds()
	if empty {
		return nil
	}
	if !ok {
		return fmt.Errorf("presburger: set %v is unbounded; cannot enumerate", b)
	}
	n := b.space.Dim()
	pt := make([]int64, n)
	ge := b.geConstraints()
	// Each constraint is enforced exactly at the depth of its highest
	// variable: with the prefix assigned, c_d*x_d + known >= 0 bounds x_d.
	// EQ constraints were expanded to GE pairs, so both directions apply.
	tighten := make([][]Constraint, n)
	for _, c := range ge {
		maxVar := -1
		for j, cj := range c.Expr.Coef {
			if cj != 0 {
				maxVar = j
			}
		}
		if maxVar < 0 {
			// Constant constraint: either trivially true or the set is empty.
			if c.Expr.K < 0 {
				return nil
			}
			continue
		}
		tighten[maxVar] = append(tighten[maxVar], c)
	}
	// bound returns dimension d's range [dlo, dhi] under the prefix.
	bound := func(d int) (int64, int64) {
		dlo, dhi := lo[d], hi[d]
		for _, c := range tighten[d] {
			cd := c.Expr.Coef[d]
			// c_d*x_d + known >= 0 with known from the assigned prefix.
			known := c.Expr.K
			for j := 0; j < d; j++ {
				known += c.Expr.Coef[j] * pt[j]
			}
			if cd > 0 {
				if v := ceilDiv(-known, cd); v > dlo {
					dlo = v
				}
			} else {
				if v := floorDiv(-known, cd); v < dhi {
					dhi = v
				}
			}
		}
		return dlo, dhi
	}
	var rec func(d int) bool
	rec = func(d int) bool {
		dlo, dhi := bound(d)
		if d == n-1 {
			if dlo > dhi {
				return true
			}
			return yield(pt, dlo, dhi+1)
		}
		for v := dlo; v <= dhi; v++ {
			pt[d] = v
			if !rec(d + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return nil
}

// Card returns the exact number of integer points in the set.
func (b *BasicSet) Card() (int64, error) {
	// Fast path: if every constraint mentions at most one variable the set
	// is a box and the cardinality is the product of interval widths.
	box := true
	for _, c := range b.cons {
		if len(c.Expr.Vars()) > 1 {
			box = false
			break
		}
	}
	lo, hi, ok, empty := b.Bounds()
	if empty {
		return 0, nil
	}
	if !ok {
		return 0, fmt.Errorf("presburger: set %v is unbounded; cardinality undefined", b)
	}
	if box {
		n := int64(1)
		for i := range lo {
			w := hi[i] - lo[i] + 1
			if w <= 0 {
				return 0, nil
			}
			if w > math.MaxInt64/maxI64(n, 1) {
				return 0, fmt.Errorf("presburger: cardinality overflow")
			}
			n *= w
		}
		return n, nil
	}
	var n int64
	err := b.Rows(func(_ []int64, lo, hi int64) bool { n += hi - lo; return true })
	return n, err
}

// IsEmpty reports whether the set has no integer points.
func (b *BasicSet) IsEmpty() (bool, error) {
	_, _, ok, empty := b.Bounds()
	if empty {
		return true, nil
	}
	if !ok {
		return false, fmt.Errorf("presburger: set %v is unbounded; emptiness check unsupported", b)
	}
	found := false
	err := b.Rows(func([]int64, int64, int64) bool { found = true; return false })
	return !found, err
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
