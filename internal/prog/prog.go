// Package prog models the array-intensive program fragments the paper
// schedules: arrays with row-major layouts, affine array references, and
// processes defined by an iteration space plus a list of references
// (Figure 1 of the paper).
//
// A ProcessSpec is the static description the scheduler analyses (its data
// spaces and sharing) and the simulator executes (its address trace).
package prog

import (
	"fmt"

	"locsched/internal/presburger"
)

// Array describes a program array: a name, per-dimension extents, and an
// element size in bytes. Elements are laid out row-major.
type Array struct {
	Name string
	Dims []int64 // extent of each dimension; all must be positive
	Elem int64   // element size in bytes
}

// NewArray builds and validates an array descriptor.
func NewArray(name string, elemBytes int64, dims ...int64) (*Array, error) {
	if name == "" {
		return nil, fmt.Errorf("prog: array needs a name")
	}
	if elemBytes <= 0 {
		return nil, fmt.Errorf("prog: array %s: element size %d must be positive", name, elemBytes)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("prog: array %s: needs at least one dimension", name)
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("prog: array %s: dimension %d extent %d must be positive", name, i, d)
		}
	}
	return &Array{Name: name, Dims: append([]int64(nil), dims...), Elem: elemBytes}, nil
}

// MustArray is NewArray that panics on error.
func MustArray(name string, elemBytes int64, dims ...int64) *Array {
	a, err := NewArray(name, elemBytes, dims...)
	if err != nil {
		panic(err)
	}
	return a
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Dims) }

// Elems returns the total number of elements.
func (a *Array) Elems() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Bytes returns the total array size in bytes.
func (a *Array) Bytes() int64 { return a.Elems() * a.Elem }

// LinearIndex converts a multi-dimensional index to the row-major linear
// element index. Indices outside the declared extents are clamped into
// range modulo the extent; this mirrors the paper's implicit assumption
// that references stay in bounds while keeping synthetic workloads safe.
func (a *Array) LinearIndex(idx []int64) int64 {
	if len(idx) != len(a.Dims) {
		panic(fmt.Sprintf("prog: array %s: index rank %d != %d", a.Name, len(idx), len(a.Dims)))
	}
	var lin int64
	for i, x := range idx {
		d := a.Dims[i]
		x %= d
		if x < 0 {
			x += d
		}
		lin = lin*d + x
	}
	return lin
}

func (a *Array) String() string {
	s := a.Name
	for _, d := range a.Dims {
		s += fmt.Sprintf("[%d]", d)
	}
	return s
}

// AccessKind distinguishes read from write references.
type AccessKind int

const (
	// Read is a load reference.
	Read AccessKind = iota
	// Write is a store reference.
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Ref is an affine array reference: at iteration point x the reference
// touches Array element Map(x).
type Ref struct {
	Array *Array
	Map   *presburger.Map // iteration space -> array subscript vector
	Kind  AccessKind
}

// NewRef builds and validates a reference. The map's output arity must
// match the array rank.
func NewRef(a *Array, m *presburger.Map, kind AccessKind) (Ref, error) {
	if a == nil {
		return Ref{}, fmt.Errorf("prog: reference needs an array")
	}
	if m == nil {
		return Ref{}, fmt.Errorf("prog: reference to %s needs an access map", a.Name)
	}
	if m.OutDim() != a.Rank() {
		return Ref{}, fmt.Errorf("prog: reference to %s: map arity %d != array rank %d", a.Name, m.OutDim(), a.Rank())
	}
	return Ref{Array: a, Map: m, Kind: kind}, nil
}

// MustRef is NewRef that panics on error.
func MustRef(a *Array, m *presburger.Map, kind AccessKind) Ref {
	r, err := NewRef(a, m, kind)
	if err != nil {
		panic(err)
	}
	return r
}

// Piece returns the affine piece of the reference's linear element index
// that starts at the iteration point pt and runs along its innermost
// coordinate: for t in [0, n), the point pt with the innermost coordinate
// advanced by t touches element lin + t·step (lin = LinearIndex(Map(pt))).
// The piece ends before hi, the exclusive end of pt's row, or where a
// subscript c·x + K crosses a multiple of its extent d, because
// LinearIndex wraps every subscript (negative ones included) modulo its
// extent. n ≥ 1 when pt's innermost coordinate is below hi. Looping
// x += n over a row splits it into the pieces; pt's innermost
// coordinate is the only entry the caller needs to update.
func (r Ref) Piece(pt []int64, hi int64) (lin, step, n int64) {
	last := len(pt) - 1
	n = hi - pt[last]
	for k, d := range r.Array.Dims {
		s := r.Map.EvalAt(k, pt)
		q := floorDiv(s, d)
		lin = lin*d + s - q*d
		c := r.Map.Coef(k, last)
		if d == 1 || c == 0 {
			// The wrapped subscript is constant along the row.
			step *= d
			continue
		}
		step = step*d + c
		// Steps until s leaves [q·d, (q+1)·d).
		var m int64
		if c > 0 {
			m = ceilDiv((q+1)*d-s, c)
		} else {
			m = (s-q*d)/(-c) + 1
		}
		n = min(n, m)
	}
	return lin, step, n
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0, b > 0.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func (r Ref) String() string {
	return fmt.Sprintf("%s %s%v", r.Kind, r.Array.Name, r.Map)
}

// ProcessSpec is the static description of one schedulable process: the
// iteration space it executes, the array references issued per iteration,
// and the compute cycles each iteration costs beyond its memory accesses.
type ProcessSpec struct {
	Name            string
	IterSpace       *presburger.BasicSet
	Refs            []Ref
	ComputePerIter  int64 // extra CPU cycles per iteration
	iterations      int64 // computed at construction; see iterationsErr
	iterationsErr   error // non-nil when the space is uncountable
	iterationsValid bool
}

// NewProcessSpec builds and validates a process description. Every
// reference map must be over the iteration space's variable space.
func NewProcessSpec(name string, iter *presburger.BasicSet, computePerIter int64, refs ...Ref) (*ProcessSpec, error) {
	if name == "" {
		return nil, fmt.Errorf("prog: process needs a name")
	}
	if iter == nil {
		return nil, fmt.Errorf("prog: process %s needs an iteration space", name)
	}
	if computePerIter < 0 {
		return nil, fmt.Errorf("prog: process %s: negative compute cost", name)
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("prog: process %s needs at least one reference", name)
	}
	for i, r := range refs {
		if !r.Map.InSpace().Equal(iter.Space()) {
			return nil, fmt.Errorf("prog: process %s: reference %d map space %v != iteration space %v",
				name, i, r.Map.InSpace(), iter.Space())
		}
	}
	p := &ProcessSpec{
		Name:           name,
		IterSpace:      iter,
		Refs:           append([]Ref(nil), refs...),
		ComputePerIter: computePerIter,
	}
	// Count the iteration space eagerly: specs are shared read-only by
	// concurrent experiment cells, so no lazily-written state may remain.
	p.iterations, p.iterationsErr = iter.Card()
	if p.iterationsErr != nil {
		p.iterationsErr = fmt.Errorf("prog: process %s: %w", name, p.iterationsErr)
	}
	p.iterationsValid = true
	return p, nil
}

// MustProcessSpec is NewProcessSpec that panics on error.
func MustProcessSpec(name string, iter *presburger.BasicSet, computePerIter int64, refs ...Ref) *ProcessSpec {
	p, err := NewProcessSpec(name, iter, computePerIter, refs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Iterations returns the exact number of iteration points (computed once
// at construction; safe for concurrent use).
func (p *ProcessSpec) Iterations() (int64, error) {
	if !p.iterationsValid {
		// Zero-value or hand-rolled spec: fall back to counting directly.
		n, err := p.IterSpace.Card()
		if err != nil {
			return 0, fmt.Errorf("prog: process %s: %w", p.Name, err)
		}
		return n, nil
	}
	if p.iterationsErr != nil {
		return 0, p.iterationsErr
	}
	return p.iterations, nil
}

// Accesses returns the total number of memory references the process
// issues: iterations × references per iteration.
func (p *ProcessSpec) Accesses() (int64, error) {
	n, err := p.Iterations()
	if err != nil {
		return 0, err
	}
	return n * int64(len(p.Refs)), nil
}

// Arrays returns the distinct arrays the process references, in first-use
// order.
func (p *ProcessSpec) Arrays() []*Array {
	seen := make(map[*Array]bool, len(p.Refs))
	var out []*Array
	for _, r := range p.Refs {
		if !seen[r.Array] {
			seen[r.Array] = true
			out = append(out, r.Array)
		}
	}
	return out
}

func (p *ProcessSpec) String() string {
	return fmt.Sprintf("process %s: %d refs over %v", p.Name, len(p.Refs), p.IterSpace.Space())
}
