package sharing

import (
	"fmt"
	"math/rand"
	"testing"

	"locsched/internal/eset"
	"locsched/internal/prog"
	"locsched/internal/prog/progtest"
	"locsched/internal/taskgraph"
)

// pairwiseMatrix is the oracle for MatrixParallel: it intersects the
// full data spaces of every process pair, array by array, with no
// footprint summaries, components, interval rejection or tiling, and
// returns the dense rows in g.ProcIDs() order.
func pairwiseMatrix(a *Analyzer, g *taskgraph.Graph) ([][]int64, error) {
	ids := g.ProcIDs()
	vals := make([][]int64, len(ids))
	spaces := make([]DataSpace, len(ids))
	for i, id := range ids {
		ds, err := a.DataSpace(g.Process(id).Spec)
		if err != nil {
			return nil, err
		}
		spaces[i] = ds
		vals[i] = make([]int64, len(ids))
	}
	for i := range ids {
		vals[i][i] = spaces[i].FootprintBytes()
		for j := i + 1; j < len(ids); j++ {
			s := sharedBytesPairwise(spaces[i], spaces[j])
			vals[i][j] = s
			vals[j][i] = s
		}
	}
	return vals, nil
}

// sharedBytesPairwise returns the bytes two data spaces share: the sum
// over common arrays of |DS_a ∩ DS'_a| × element size.
func sharedBytesPairwise(d, o DataSpace) int64 {
	var n int64
	for arr, s := range d {
		if os, ok := o[arr]; ok {
			n += s.IntersectCard(os) * arr.Elem
		}
	}
	return n
}

// pointDataSpace is the enumeration oracle for ComputeDataSpace: it
// visits every iteration point once per reference, applies the access
// map and linearizes the subscripts element by element.
func pointDataSpace(spec *prog.ProcessSpec) (DataSpace, error) {
	builders := make(map[*prog.Array]*eset.Builder)
	idx := make([]int64, 0, 4)
	for _, ref := range spec.Refs {
		b, ok := builders[ref.Array]
		if !ok {
			b = eset.NewBuilder()
			builders[ref.Array] = b
		}
		arr := ref.Array
		m := ref.Map
		err := spec.IterSpace.Points(func(pt []int64) bool {
			idx = m.Apply(pt, idx)
			b.Add(arr.LinearIndex(idx))
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("sharing: process %s: %w", spec.Name, err)
		}
	}
	ds := make(DataSpace, len(builders))
	for arr, b := range builders {
		ds[arr] = b.Build()
	}
	return ds, nil
}

// checkPieces checks ComputeDataSpace against pointDataSpace, and every
// affine piece of every reference against LinearIndex at each point it
// claims.
func checkPieces(t *testing.T, spec *prog.ProcessSpec) {
	t.Helper()
	want, werr := pointDataSpace(spec)
	got, gerr := ComputeDataSpace(spec)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("%v: error %v, oracle %v", spec.IterSpace, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%v: %d arrays, oracle %d", spec.IterSpace, len(got), len(want))
	}
	for arr, ws := range want {
		if gs, ok := got[arr]; !ok || !gs.Equal(ws) {
			t.Fatalf("%v: %v refs %v: data space %v, oracle %v", spec.IterSpace, arr, spec.Refs, gs, ws)
		}
	}
	idx := make([]int64, 0, 3)
	err := spec.IterSpace.Rows(func(pt []int64, lo, hi int64) bool {
		last := len(pt) - 1
		for _, ref := range spec.Refs {
			for x := lo; x < hi; {
				pt[last] = x
				lin, step, n := ref.Piece(pt, hi)
				if n < 1 || n > hi-x {
					t.Fatalf("%v at %v: piece length %d outside [1, %d]", ref, pt, n, hi-x)
				}
				for k := int64(0); k < n; k++ {
					pt[last] = x + k
					idx = ref.Map.Apply(pt, idx)
					if w := ref.Array.LinearIndex(idx); lin+k*step != w {
						t.Fatalf("%v at %v: piece gives %d, LinearIndex %d", ref, pt, lin+k*step, w)
					}
				}
				x += n
			}
		}
		return true
	})
	if (err == nil) != (werr == nil) {
		t.Fatalf("%v: Rows error %v, oracle %v", spec.IterSpace, err, werr)
	}
}

// TestDataSpacePiecesMatchPointOracle: on 20,000 seeded random specs —
// array ranks 1–3, strides −4…4, negative and wrapping offsets, 1-D,
// 2-D, triangular and empty iteration spaces — the piecewise data space
// equals the point walk.
func TestDataSpacePiecesMatchPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		spec, _ := progtest.RandomSpec(rng)
		checkPieces(t, spec)
	}
}

// FuzzFootprintPieces decodes a spec from raw bytes and checks the same
// equalities as TestDataSpacePiecesMatchPointOracle.
func FuzzFootprintPieces(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 12, 0, 7, 1, 0, 1, 2, 0, 9, 4, 0, 3, 250, 20, 17})
	f.Add([]byte{6, 10, 2, 5, 2, 1, 3, 3, 8, 9, 7, 1, 6, 2, 8, 40, 0, 255, 33, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, _ := progtest.Spec(data)
		checkPieces(t, spec)
	})
}

// BenchmarkComputeMatrixXL measures the pairwise oracle on the XL
// ladder's generated mixes (tasks = cores/4), the inputs the root
// package's BenchmarkComputeMatrixXL gives the blocked construction, so
// the two can be compared. Each iteration builds a fresh Analyzer, so
// the numbers cover data spaces plus the pair sweep.
func BenchmarkComputeMatrixXL(b *testing.B) {
	for _, cores := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			g := xlGraph(b, cores/4)
			b.Run("seq", func(b *testing.B) {
				b.ReportMetric(float64(g.Len()), "procs")
				for i := 0; i < b.N; i++ {
					if _, err := pairwiseMatrix(NewAnalyzer(), g); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
