package trace

import (
	"fmt"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/workload"
)

// diffGeom is the paper's Table 2 cache, used to derive relayouts.
func diffGeom() cache.Geometry {
	return cache.Geometry{Size: 8 * 1024, BlockSize: 32, Assoc: 2}
}

// addressMapsUnderTest returns the two layouts every app is checked
// under: the packed base layout and the LSM-derived relayout (falling
// back to an explicit alternating-bank relayout when the mapping phase
// moves nothing, so the interleaved path is always exercised).
func addressMapsUnderTest(t *testing.T, app *workload.App) map[string]layout.AddressMap {
	t.Helper()
	geom := diffGeom()
	base, err := layout.Pack(geom.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatalf("%s: Pack: %v", app.Name, err)
	}
	m, err := sharing.ComputeMatrixParallel(app.Graph, 1)
	if err != nil {
		t.Fatalf("%s: ComputeMatrixParallel: %v", app.Name, err)
	}
	_, mapping, err := sched.NewLSM(app.Graph, m, nil, 8, base, geom, nil)
	if err != nil {
		t.Fatalf("%s: NewLSM: %v", app.Name, err)
	}
	rl := mapping.Layout
	if len(mapping.Banks) == 0 {
		banks := make(map[*prog.Array]int64, len(app.Arrays))
		for i, arr := range app.Arrays {
			banks[arr] = int64(i%2) * (geom.PageSize() / 2)
		}
		rl, err = layout.ApplyRelayout(base, geom, banks)
		if err != nil {
			t.Fatalf("%s: ApplyRelayout: %v", app.Name, err)
		}
	}
	return map[string]layout.AddressMap{"Packed": base, "Relayouted": rl}
}

// TestCompiledMatchesInterpreted: for every Table 1 application under
// both address maps, the compiled (run-length-encoded) stream is
// access-for-access identical to the interpreting reference cursor —
// same addresses, same read/write kinds, same iteration boundaries.
func TestCompiledMatchesInterpreted(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		for amName, am := range addressMapsUnderTest(t, app) {
			t.Run(fmt.Sprintf("%s/%s", app.Name, amName), func(t *testing.T) {
				gen := NewGenerator(am)
				for _, p := range app.Graph.Processes() {
					cur, err := gen.NewRLECursor(p.Spec)
					if err != nil {
						t.Fatalf("NewRLECursor(%s): %v", p.Spec.Name, err)
					}
					ref, err := gen.NewInterpCursor(p.Spec)
					if err != nil {
						t.Fatalf("NewInterpCursor(%s): %v", p.Spec.Name, err)
					}
					if cur.Remaining() != ref.Remaining() {
						t.Fatalf("%s: Remaining %d != interpreted %d", p.Spec.Name, cur.Remaining(), ref.Remaining())
					}
					for i := int64(0); ; i++ {
						got, gok := cur.Next()
						want, wok := ref.Next()
						if gok != wok {
							t.Fatalf("%s: access %d: compiled ok=%v, interpreted ok=%v", p.Spec.Name, i, gok, wok)
						}
						if !gok {
							break
						}
						if got != want {
							t.Fatalf("%s: access %d: compiled %+v != interpreted %+v", p.Spec.Name, i, got, want)
						}
					}
				}
			})
		}
	}
}

// TestCompiledResumeAndReset: a process stopped at every preemption
// point and resumed on a fresh cursor — the position carried across by
// Pos and Seek, as when it migrates to another core — replays the
// interpreted stream exactly, also after a mid-stream Reset.
func TestCompiledResumeAndReset(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		for amName, am := range addressMapsUnderTest(t, app) {
			t.Run(fmt.Sprintf("%s/%s", app.Name, amName), func(t *testing.T) {
				gen := NewGenerator(am)
				// One representative process per app keeps the quadratic
				// chunk walk affordable; the full-stream equivalence of
				// every process is covered above.
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
				// Mid-stream reset: consume a third, rewind, then replay in
				// preemption-sized chunks, moving to a fresh cursor at
				// every boundary.
				for i := 0; i < len(want)/3; i++ {
					cur.Next()
				}
				cur.Reset()
				if cur.Remaining() != int64(len(want)) {
					t.Fatalf("after Reset: Remaining = %d, want %d", cur.Remaining(), len(want))
				}
				var got []Access
				chunk := 7
				for !cur.Done() {
					for k := 0; k < chunk && !cur.Done(); k++ {
						acc, ok := cur.Next()
						if !ok {
							break
						}
						got = append(got, acc)
					}
					seg, iter, ref := cur.Pos()
					if cur, err = gen.NewRLECursor(spec); err != nil {
						t.Fatal(err)
					}
					cur.Seek(seg, iter, ref)
					if cur.Remaining() != int64(len(want)-len(got)) {
						t.Fatalf("resume point %d: Remaining = %d, want %d", len(got), cur.Remaining(), len(want)-len(got))
					}
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
