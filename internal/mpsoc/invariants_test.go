package mpsoc

import (
	"fmt"
	"math/rand"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// randomWorkload builds a random DAG of streaming processes over one
// array of 4-byte elements. Each process has one to four references,
// reads or writes, with strides of zero, below, at and above the 32-byte
// block, backwards ones included; a reference may repeat the previous
// one's stride a few elements on, so two references share a block.
func randomWorkload(t *testing.T, rng *rand.Rand) (*taskgraph.Graph, layout.AddressMap) {
	t.Helper()
	arr := prog.MustArray("A", 4, 1<<20)
	strides := []int64{0, 1, 2, 3, 8, 9, 20, -1, -3}
	g := taskgraph.New()
	n := 3 + rng.Intn(15)
	ids := make([]taskgraph.ProcID, n)
	for i := 0; i < n; i++ {
		lo := int64(rng.Intn(1000)) * 100
		iter := prog.Seg("i", lo, lo+int64(50+rng.Intn(400)))
		refs := make([]prog.Ref, 1+rng.Intn(4))
		var stride, off int64
		for j := range refs {
			if j > 0 && rng.Intn(3) == 0 {
				off += rng.Int63n(7)
			} else {
				stride, off = strides[rng.Intn(len(strides))], rng.Int63n(1<<16)
			}
			kind := prog.Read
			if rng.Intn(4) == 0 {
				kind = prog.Write
			}
			refs[j] = prog.StreamRef(arr, kind, iter, stride, off)
		}
		spec := prog.MustProcessSpec("p", iter, int64(rng.Intn(4)), refs...)
		ids[i] = taskgraph.ProcID{Task: 0, Idx: i}
		if err := g.AddProcess(&taskgraph.Process{ID: ids[i], Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(6) == 0 {
				if err := g.AddDep(ids[i], ids[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, layout.MustPack(32, arr)
}

// TestEngineInvariantsRandomized checks, over random workloads and
// machine shapes, the accounting identities every run must satisfy:
// completions within [0, makespan], idle = cores×makespan − Σbusy,
// busy equals the sum of recorded segment durations, and every process
// completes exactly once.
func TestEngineInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			g, am := randomWorkload(t, rng)
			cfg := DefaultConfig()
			cfg.Cores = 1 + rng.Intn(8)
			cfg.RecordTimeline = true
			quantum := int64(0)
			if rng.Intn(2) == 0 {
				quantum = int64(200 + rng.Intn(2000))
			}
			res, err := runOnce(g, &fifoDispatcher{quantum: quantum}, am, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, g, cfg.Cores, res)
		})
	}
}

// checkAccounting fails unless res, a run of g on cores cores with the
// timeline recorded, satisfies the identities every run must: every
// process completes exactly once, within (0, makespan] and after its
// predecessors; idle = cores×makespan − Σbusy; busy equals the summed
// segment durations; and the cache counters add up.
func checkAccounting(t *testing.T, g *taskgraph.Graph, cores int, res *Result) {
	t.Helper()
	if len(res.Completion) != g.Len() {
		t.Fatalf("%d completions for %d processes", len(res.Completion), g.Len())
	}
	var totalBusy int64
	for c, st := range res.PerCore {
		if st.BusyCycles < 0 {
			t.Fatalf("core %d negative busy", c)
		}
		if st.BusyCycles > res.Cycles {
			t.Fatalf("core %d busy %d exceeds makespan %d", c, st.BusyCycles, res.Cycles)
		}
		totalBusy += st.BusyCycles
	}
	if wantIdle := int64(cores)*res.Cycles - totalBusy; res.IdleCycles != wantIdle {
		t.Fatalf("idle %d, want %d", res.IdleCycles, wantIdle)
	}
	var segBusy int64
	completedSegs := 0
	for _, s := range res.Timeline {
		segBusy += s.End - s.Start
		if s.Completed {
			completedSegs++
		}
		if s.End > res.Cycles || s.Start < 0 {
			t.Fatalf("segment %+v outside [0,%d]", s, res.Cycles)
		}
	}
	if segBusy != totalBusy {
		t.Fatalf("segment cycles %d != busy cycles %d", segBusy, totalBusy)
	}
	if completedSegs != g.Len() {
		t.Fatalf("%d completing segments for %d processes", completedSegs, g.Len())
	}
	for id, c := range res.Completion {
		if c <= 0 || c > res.Cycles {
			t.Fatalf("completion of %v at %d outside (0,%d]", id, c, res.Cycles)
		}
		for _, p := range g.Preds(id) {
			if res.Completion[p] >= c {
				t.Fatalf("%v completed at %d, predecessor %v at %d", id, c, p, res.Completion[p])
			}
		}
	}
	if res.Total.Hits+res.Total.Misses() != res.Total.Accesses {
		t.Fatalf("cache stats inconsistent: %+v", res.Total)
	}
}

// TestEngineSameWorkDifferentCores: total busy cycles on one core equal
// the single stream's cost; with more cores and no dependences the same
// accesses are issued (cache effects aside, each core's cache is cold,
// so per-process costs can only grow).
func TestEngineColdStartMonotonicity(t *testing.T) {
	build := func() (*taskgraph.Graph, layout.AddressMap) {
		arr := prog.MustArray("A", 4, 4096)
		g := taskgraph.New()
		for i := 0; i < 4; i++ {
			iter := prog.Seg("i", 0, 512)
			spec := prog.MustProcessSpec("p", iter, 1, prog.StreamRef(arr, prog.Read, iter, 1, 0))
			if err := g.AddProcess(&taskgraph.Process{ID: taskgraph.ProcID{Task: 0, Idx: i}, Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		return g, layout.MustPack(32, arr)
	}
	// All four processes read the same 2KB: serial on one core, three of
	// four runs are warm; on four cores all are cold.
	g1, am1 := build()
	one, err := runOnce(g1, &fifoDispatcher{}, am1, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	g4, am4 := build()
	four, err := runOnce(g4, &fifoDispatcher{}, am4, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var busy1, busy4 int64
	for _, st := range one.PerCore {
		busy1 += st.BusyCycles
	}
	for _, st := range four.PerCore {
		busy4 += st.BusyCycles
	}
	if busy4 <= busy1 {
		t.Errorf("four cold caches (%d busy cycles) should cost more than one warm core (%d)",
			busy4, busy1)
	}
	if four.Cycles >= one.Cycles {
		t.Errorf("four cores (%d makespan) should still finish sooner than one (%d)",
			four.Cycles, one.Cycles)
	}
}
