package presburger

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// LinExpr is an affine expression sum(Coef[i]*x_i) + K over the variables
// of a Space. The zero value of appropriate width is the constant 0.
type LinExpr struct {
	Coef []int64 // one coefficient per space variable
	K    int64   // constant term
}

// Zero returns the zero expression over a space of dimension dim.
func Zero(dim int) LinExpr { return LinExpr{Coef: make([]int64, dim)} }

// Const returns the constant expression k over a space of dimension dim.
func Const(dim int, k int64) LinExpr {
	return LinExpr{Coef: make([]int64, dim), K: k}
}

// Term returns the expression c*x_i over a space of dimension dim.
func Term(dim, i int, c int64) LinExpr {
	e := Zero(dim)
	e.Coef[i] = c
	return e
}

// Var returns the expression x_i over a space of dimension dim.
func Var(dim, i int) LinExpr { return Term(dim, i, 1) }

// Dim reports the width of the expression.
func (e LinExpr) Dim() int { return len(e.Coef) }

// Add returns e + o. Both must have the same width.
func (e LinExpr) Add(o LinExpr) LinExpr {
	mustSameDim(e, o)
	r := LinExpr{Coef: make([]int64, len(e.Coef)), K: e.K + o.K}
	for i := range e.Coef {
		r.Coef[i] = e.Coef[i] + o.Coef[i]
	}
	return r
}

// Sub returns e - o. Both must have the same width.
func (e LinExpr) Sub(o LinExpr) LinExpr {
	mustSameDim(e, o)
	r := LinExpr{Coef: make([]int64, len(e.Coef)), K: e.K - o.K}
	for i := range e.Coef {
		r.Coef[i] = e.Coef[i] - o.Coef[i]
	}
	return r
}

// Scale returns c*e.
func (e LinExpr) Scale(c int64) LinExpr {
	r := LinExpr{Coef: make([]int64, len(e.Coef)), K: e.K * c}
	for i := range e.Coef {
		r.Coef[i] = e.Coef[i] * c
	}
	return r
}

// AddConst returns e + k.
func (e LinExpr) AddConst(k int64) LinExpr {
	r := LinExpr{Coef: append([]int64(nil), e.Coef...), K: e.K + k}
	return r
}

// Eval evaluates the expression at the given point.
// len(pt) must equal the expression width.
func (e LinExpr) Eval(pt []int64) int64 {
	if len(pt) != len(e.Coef) {
		panic(fmt.Sprintf("presburger: Eval point width %d != expr width %d", len(pt), len(e.Coef)))
	}
	v := e.K
	for i, c := range e.Coef {
		v += c * pt[i]
	}
	return v
}

// IsConst reports whether all variable coefficients are zero.
func (e LinExpr) IsConst() bool {
	for _, c := range e.Coef {
		if c != 0 {
			return false
		}
	}
	return true
}

// Vars returns the indices of variables with non-zero coefficients.
func (e LinExpr) Vars() []int {
	var vs []int
	for i, c := range e.Coef {
		if c != 0 {
			vs = append(vs, i)
		}
	}
	return vs
}

// Clone returns an independent copy of the expression.
func (e LinExpr) Clone() LinExpr {
	return LinExpr{Coef: append([]int64(nil), e.Coef...), K: e.K}
}

// StringIn renders the expression with variable names from space.
func (e LinExpr) StringIn(space *Space) string {
	var b strings.Builder
	first := true
	for i, c := range e.Coef {
		if c == 0 {
			continue
		}
		name := fmt.Sprintf("x%d", i)
		if space != nil && i < space.Dim() {
			name = space.VarName(i)
		}
		writeTerm(&b, &first, c, name)
	}
	if e.K != 0 || first {
		writeTerm(&b, &first, e.K, "")
	}
	return b.String()
}

func (e LinExpr) String() string { return e.StringIn(nil) }

func writeTerm(b *strings.Builder, first *bool, c int64, name string) {
	switch {
	case *first && c < 0:
		b.WriteString("-")
	case !*first && c < 0:
		b.WriteString(" - ")
	case !*first:
		b.WriteString(" + ")
	}
	*first = false
	abs := c
	if abs < 0 {
		abs = -abs
	}
	switch {
	case name == "":
		fmt.Fprintf(b, "%d", abs)
	case abs == 1:
		b.WriteString(name)
	default:
		fmt.Fprintf(b, "%d*%s", abs, name)
	}
}

func mustSameDim(a, b LinExpr) {
	if len(a.Coef) != len(b.Coef) {
		panic(fmt.Sprintf("presburger: expression width mismatch %d vs %d", len(a.Coef), len(b.Coef)))
	}
}

// ceilDiv returns ceil(a/b) for b != 0 using exact integer arithmetic.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		// Same signs with a remainder: truncation toward zero gave the
		// floor, so the ceiling is one higher.
		return q + 1
	}
	return q
}

// floorDiv returns floor(a/b) for b != 0 using exact integer arithmetic.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		return q - 1
	}
	return q
}

// appendKey appends the expression's coefficients and constant to buf.
// Callers encode the width first.
func (e LinExpr) appendKey(buf []byte) []byte {
	for _, c := range e.Coef {
		buf = binary.AppendVarint(buf, c)
	}
	return binary.AppendVarint(buf, e.K)
}
