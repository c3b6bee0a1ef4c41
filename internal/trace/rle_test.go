package trace

import (
	"fmt"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/workload"
)

// TestRLEMatchesCompiledAndInterpreted: for every Table 1 application
// under both address maps, the run-length-encoded stream replays
// access-for-access identically to both the point-by-point compiled
// encoding (pointCompileRLE) and the interpreting reference — same
// addresses, same read/write kinds, same iteration boundaries, same
// totals.
func TestRLEMatchesCompiledAndInterpreted(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		for amName, am := range addressMapsUnderTest(t, app) {
			t.Run(fmt.Sprintf("%s/%s", app.Name, amName), func(t *testing.T) {
				gen := NewGenerator(am)
				for _, p := range app.Graph.Processes() {
					rle, err := gen.NewRLECursor(p.Spec)
					if err != nil {
						t.Fatalf("NewRLECursor(%s): %v", p.Spec.Name, err)
					}
					pts, err := pointCompileRLE(p.Spec, am)
					if err != nil {
						t.Fatalf("pointCompileRLE(%s): %v", p.Spec.Name, err)
					}
					pointCur := &RLECursor{spec: p.Spec, s: pts}
					ref, err := gen.NewInterpCursor(p.Spec)
					if err != nil {
						t.Fatalf("NewInterpCursor(%s): %v", p.Spec.Name, err)
					}
					if rle.Total() != pointCur.Total() {
						t.Fatalf("%s: RLE Total %d != point-compiled %d", p.Spec.Name, rle.Total(), pointCur.Total())
					}
					if rle.Remaining() != ref.Remaining() {
						t.Fatalf("%s: RLE Remaining %d != interpreted %d", p.Spec.Name, rle.Remaining(), ref.Remaining())
					}
					for i := int64(0); ; i++ {
						got, gok := rle.Next()
						wantP, pok := pointCur.Next()
						wantI, iok := ref.Next()
						if gok != pok || gok != iok {
							t.Fatalf("%s: access %d: RLE ok=%v, point-compiled ok=%v, interpreted ok=%v", p.Spec.Name, i, gok, pok, iok)
						}
						if !gok {
							break
						}
						if got != wantP || got != wantI {
							t.Fatalf("%s: access %d: RLE %+v, point-compiled %+v, interpreted %+v", p.Spec.Name, i, got, wantP, wantI)
						}
					}
				}
			})
		}
	}
}

// TestRLEResumeAndReset: chunked consumption (preemption resume points,
// including mid-iteration stops at every chunk boundary) and a
// mid-stream Reset reproduce the interpreted stream exactly, with
// correct Remaining bookkeeping throughout.
func TestRLEResumeAndReset(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		for amName, am := range addressMapsUnderTest(t, app) {
			t.Run(fmt.Sprintf("%s/%s", app.Name, amName), func(t *testing.T) {
				gen := NewGenerator(am)
				spec := app.Graph.Processes()[0].Spec

				ref, err := gen.NewInterpCursor(spec)
				if err != nil {
					t.Fatal(err)
				}
				var want []Access
				for {
					acc, ok := ref.Next()
					if !ok {
						break
					}
					want = append(want, acc)
				}

				cur, err := gen.NewRLECursor(spec)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(want)/3; i++ {
					cur.Next()
				}
				cur.Reset()
				if cur.Remaining() != int64(len(want)) {
					t.Fatalf("after Reset: Remaining = %d, want %d", cur.Remaining(), len(want))
				}
				var got []Access
				// A chunk size coprime to typical ref counts stops
				// mid-iteration at most boundaries.
				chunk := 7
				for !cur.Done() {
					for k := 0; k < chunk && !cur.Done(); k++ {
						acc, ok := cur.Next()
						if !ok {
							break
						}
						got = append(got, acc)
					}
					if cur.Remaining() != int64(len(want)-len(got)) {
						t.Fatalf("resume point %d: Remaining = %d, want %d", len(got), cur.Remaining(), len(want)-len(got))
					}
					// Seek to the position Pos reports: a round trip through
					// the engine's commit path must be a no-op.
					seg, iter, ref := cur.Pos()
					cur.Seek(seg, iter, ref)
				}
				if len(got) != len(want) {
					t.Fatalf("chunked stream length = %d, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("access %d = %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// flatBytes is the resident size of s's trace materialized access by
// access: 8 address bytes plus 1 flag byte per access.
func flatBytes(s *RLEStream) int64 { return s.Len() * 9 }

// TestRLEMemoryReduction: across the Table 1 applications under both
// layouts, the run-length encoding is at least 4× smaller than the
// materialized trace — per process and in aggregate. (In practice the
// reduction is orders of magnitude: a strided phase compresses to one
// segment.)
func TestRLEMemoryReduction(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	var flatTotal, rleTotal int64
	for _, app := range apps {
		for amName, am := range addressMapsUnderTest(t, app) {
			gen := NewGenerator(am)
			for _, p := range app.Graph.Processes() {
				rle, err := gen.RLE(p.Spec)
				if err != nil {
					t.Fatal(err)
				}
				fb, rb := flatBytes(rle), rle.MemBytes()
				flatTotal += fb
				rleTotal += rb
				if rb*4 > fb {
					t.Errorf("%s/%s/%s: RLE %d bytes vs flat %d bytes: reduction %.1f× < 4×",
						app.Name, amName, p.Spec.Name, rb, fb, float64(fb)/float64(rb))
				}
			}
		}
	}
	if rleTotal*4 > flatTotal {
		t.Errorf("aggregate: RLE %d bytes vs flat %d bytes: reduction %.1f× < 4×",
			rleTotal, flatTotal, float64(flatTotal)/float64(rleTotal))
	}
	t.Logf("Table 1 aggregate stream bytes: flat %d, RLE %d (%.0f× reduction)",
		flatTotal, rleTotal, float64(flatTotal)/float64(rleTotal))
}

// TestRLEZeroRefSpec: a hand-rolled spec with no references (rejected by
// prog.NewProcessSpec but constructible directly) makes no accesses, so
// its encoding must report the process as already done.
func TestRLEZeroRefSpec(t *testing.T) {
	arr := prog.MustArray("zr.A", 4, 16)
	am := layout.MustPack(32, arr)
	spec := &prog.ProcessSpec{Name: "zr", IterSpace: prog.Seg("i", 0, 8)}
	rle, err := NewGenerator(am).NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rle.Done() {
		t.Error("RLE cursor of zero-ref spec not Done")
	}
	if rle.Total() != 0 || rle.Remaining() != 0 {
		t.Errorf("RLE zero-ref totals: Total=%d Remaining=%d, want 0", rle.Total(), rle.Remaining())
	}
	if _, ok := rle.Next(); ok {
		t.Error("RLE zero-ref cursor produced an access")
	}
}

// TestRLECursorNextZeroAlloc asserts steady-state RLECursor.Next
// allocates nothing.
func TestRLECursorNextZeroAlloc(t *testing.T) {
	spec, am := benchSpec()
	cur, err := NewGenerator(am).NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		if _, ok := cur.Next(); !ok {
			cur.Reset()
		}
	})
	if allocs != 0 {
		t.Errorf("RLECursor.Next allocates %.1f objects/op, want 0", allocs)
	}
}
