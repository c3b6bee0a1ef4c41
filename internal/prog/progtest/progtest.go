// Package progtest generates small process specs for differential tests
// and fuzz targets: arrays of rank 1–3, affine subscripts with strides
// −4…4 and negative or wrapping offsets, over 1-D, 2-D, triangular or
// empty iteration spaces.
package progtest

import (
	"fmt"
	"math/rand"

	"locsched/internal/presburger"
	"locsched/internal/prog"
)

// elemSizes are the element sizes specs draw from. Besides the usual
// powers of two they include sizes that do not divide common half-page
// sizes, so relaid elements straddle chunk boundaries.
var elemSizes = []int64{1, 2, 4, 8, 12, 24, 70, 100}

// byteSource reads data cyclically; empty data reads zeros.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) next() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[s.pos%len(s.data)]
	s.pos++
	return int64(b)
}

// in returns a value in [lo, hi].
func (s *byteSource) in(lo, hi int64) int64 { return lo + s.next()%(hi-lo+1) }

// Spec decodes a process spec and its arrays from data. Every input
// decodes to a valid spec, so fuzz targets can feed raw bytes.
func Spec(data []byte) (*prog.ProcessSpec, []*prog.Array) {
	src := &byteSource{data: data}
	iter := iterSpace(src)
	arrays := decodeArrays(src, int(src.in(1, 2)))
	return specOver(src, iter, arrays), arrays
}

// Decoder decodes several specs from one byte string, so that fuzz
// targets can build graphs whose processes draw their references from a
// common array pool.
type Decoder struct{ src byteSource }

// NewDecoder returns a decoder reading data cyclically.
func NewDecoder(data []byte) *Decoder { return &Decoder{src: byteSource{data: data}} }

// In decodes a value in [lo, hi].
func (d *Decoder) In(lo, hi int64) int64 { return d.src.in(lo, hi) }

// Arrays decodes n arrays of rank 1–3.
func (d *Decoder) Arrays(n int) []*prog.Array { return decodeArrays(&d.src, n) }

// Spec decodes a spec whose references target arrays from the pool.
func (d *Decoder) Spec(pool []*prog.Array) *prog.ProcessSpec {
	return specOver(&d.src, iterSpace(&d.src), pool)
}

// decodeArrays decodes n arrays of rank 1–3 with extents 1–9.
func decodeArrays(src *byteSource, n int) []*prog.Array {
	arrays := make([]*prog.Array, n)
	for a := range arrays {
		dims := make([]int64, src.in(1, 3))
		for k := range dims {
			dims[k] = src.in(1, 9)
		}
		arrays[a] = prog.MustArray(fmt.Sprintf("A%d", a), elemSizes[src.in(0, int64(len(elemSizes)-1))], dims...)
	}
	return arrays
}

// specOver decodes 1–3 references to arrays of the pool over iter.
func specOver(src *byteSource, iter *presburger.BasicSet, arrays []*prog.Array) *prog.ProcessSpec {
	sp := iter.Space()
	refs := make([]prog.Ref, src.in(1, 3))
	for r := range refs {
		arr := arrays[src.in(0, int64(len(arrays)-1))]
		exprs := make([]presburger.LinExpr, arr.Rank())
		for k := range exprs {
			e := presburger.Const(sp.Dim(), src.in(-20, 20))
			for v := 0; v < sp.Dim(); v++ {
				e = e.Add(presburger.Term(sp.Dim(), v, src.in(-4, 4)))
			}
			exprs[k] = e
		}
		kind := prog.Read
		if src.next()%2 == 1 {
			kind = prog.Write
		}
		refs[r] = prog.MustRef(arr, presburger.MustMap(sp, exprs...), kind)
	}
	return prog.MustProcessSpec("p", iter, src.in(0, 3), refs...)
}

// iterSpace decodes a 1-D, 2-D, triangular or empty iteration space.
func iterSpace(src *byteSource) *presburger.BasicSet {
	lo0, w0 := src.in(-6, 6), src.in(0, 12)
	lo1, w1 := src.in(-6, 6), src.in(1, 12)
	sp2 := presburger.MustSpace("i", "j")
	switch src.next() % 4 {
	case 0: // 1-D; empty when w0 = 0
		return prog.Seg("i", lo0, lo0+w0)
	case 1: // 2-D box
		return presburger.MustRect(sp2, []int64{lo0, lo1}, []int64{lo0 + w0, lo1 + w1})
	case 2: // triangle: lo0 ≤ i < lo0+w0, i ≤ j < lo0+w1
		box := presburger.MustRect(sp2, []int64{lo0, lo0}, []int64{lo0 + w0, lo0 + w1})
		return box.MustWith(presburger.GEZero(presburger.Var(2, 1).Sub(presburger.Var(2, 0))))
	default: // 2-D with contradictory bounds on j
		box := presburger.MustRect(sp2, []int64{lo0, lo1}, []int64{lo0 + w0 + 1, lo1 + w1})
		return box.MustWith(presburger.GEZero(presburger.Var(2, 1).AddConst(-(lo1 + w1))))
	}
}

// RandomSpec draws a spec with Spec from rng.
func RandomSpec(rng *rand.Rand) (*prog.ProcessSpec, []*prog.Array) {
	data := make([]byte, 64)
	rng.Read(data)
	return Spec(data)
}
