package presburger

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Map is an affine map from the tuples of an input space to integer tuples
// of width OutDim: x -> (e_1(x), ..., e_m(x)).
//
// In the paper's notation, the data space of a process is the image of its
// iteration space under the access map of an array reference, e.g.
// (i1,i2) -> (i1*1000+i2, 5).
type Map struct {
	in    *Space
	exprs []LinExpr
}

// NewMap builds an affine map over the input space with one expression per
// output dimension.
func NewMap(in *Space, exprs ...LinExpr) (*Map, error) {
	if in == nil {
		return nil, fmt.Errorf("presburger: nil input space")
	}
	if len(exprs) == 0 {
		return nil, fmt.Errorf("presburger: map needs at least one output expression")
	}
	for i, e := range exprs {
		if e.Dim() != in.Dim() {
			return nil, fmt.Errorf("presburger: map output %d width %d != input dim %d", i, e.Dim(), in.Dim())
		}
	}
	return &Map{in: in, exprs: append([]LinExpr(nil), exprs...)}, nil
}

// MustMap is NewMap that panics on error.
func MustMap(in *Space, exprs ...LinExpr) *Map {
	m, err := NewMap(in, exprs...)
	if err != nil {
		panic(err)
	}
	return m
}

// Identity returns the identity map over the space.
func Identity(in *Space) *Map {
	n := in.Dim()
	exprs := make([]LinExpr, n)
	for i := 0; i < n; i++ {
		exprs[i] = Var(n, i)
	}
	return MustMap(in, exprs...)
}

// InSpace returns the input space.
func (m *Map) InSpace() *Space { return m.in }

// OutDim returns the number of output dimensions.
func (m *Map) OutDim() int { return len(m.exprs) }

// Exprs returns a copy of the output expressions.
func (m *Map) Exprs() []LinExpr {
	out := make([]LinExpr, len(m.exprs))
	for i, e := range m.exprs {
		out[i] = e.Clone()
	}
	return out
}

// Expr returns output expression i.
func (m *Map) Expr(i int) LinExpr { return m.exprs[i].Clone() }

// EvalAt evaluates output expression i at a point without copying the
// expression.
func (m *Map) EvalAt(i int, pt []int64) int64 { return m.exprs[i].Eval(pt) }

// Coef returns output expression i's coefficient of input variable j.
func (m *Map) Coef(i, j int) int64 { return m.exprs[i].Coef[j] }

// Apply evaluates the map at a point, writing into dst when it has the
// right length (allocating otherwise) and returning it.
func (m *Map) Apply(pt []int64, dst []int64) []int64 {
	if len(dst) != len(m.exprs) {
		dst = make([]int64, len(m.exprs))
	}
	for i, e := range m.exprs {
		dst[i] = e.Eval(pt)
	}
	return dst
}

// ImagePoints enumerates the image of the set under the map, calling yield
// for each image tuple (with multiplicity: one call per domain point). The
// slice passed to yield is reused; copy it to retain. The set must be over
// the map's input space.
func (m *Map) ImagePoints(b *BasicSet, yield func(pt []int64) bool) error {
	if !b.Space().Equal(m.in) {
		return fmt.Errorf("presburger: image of set over %v under map over %v", b.Space(), m.in)
	}
	out := make([]int64, len(m.exprs))
	return b.Points(func(pt []int64) bool {
		out = m.Apply(pt, out)
		return yield(out)
	})
}

// Compose returns the map x -> m(inner(x)): inner runs first, then m.
// m's input dimension must equal inner's output dimension. The composed
// map is affine, with coefficients obtained by substitution.
func (m *Map) Compose(inner *Map) (*Map, error) {
	if m.in.Dim() != inner.OutDim() {
		return nil, fmt.Errorf("presburger: composing map over %d inputs with map producing %d outputs",
			m.in.Dim(), inner.OutDim())
	}
	n := inner.in.Dim()
	exprs := make([]LinExpr, len(m.exprs))
	for i, outer := range m.exprs {
		e := Const(n, outer.K)
		for j, c := range outer.Coef {
			if c != 0 {
				e = e.Add(inner.exprs[j].Scale(c))
			}
		}
		exprs[i] = e
	}
	return NewMap(inner.in, exprs...)
}

// AppendKey appends a binary encoding of the map's input dimension and
// output expressions to buf. Maps with equal encodings are the same
// function; variable names are not encoded.
func (m *Map) AppendKey(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(m.in.Dim()))
	buf = binary.AppendVarint(buf, int64(len(m.exprs)))
	for _, e := range m.exprs {
		buf = e.appendKey(buf)
	}
	return buf
}

func (m *Map) String() string {
	var outs []string
	for _, e := range m.exprs {
		outs = append(outs, e.StringIn(m.in))
	}
	return m.in.String() + " -> [" + strings.Join(outs, ",") + "]"
}
