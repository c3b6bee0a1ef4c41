package mpsoc

import (
	"math/rand"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// randomWorkload builds a random DAG of streaming processes.
func randomWorkload(t *testing.T, rng *rand.Rand) (*taskgraph.Graph, layout.AddressMap) {
	t.Helper()
	arr := prog.MustArray("A", 4, 1<<20)
	g := taskgraph.New()
	n := 3 + rng.Intn(15)
	ids := make([]taskgraph.ProcID, n)
	for i := 0; i < n; i++ {
		lo := int64(rng.Intn(1000)) * 100
		iter := prog.Seg("i", lo, lo+int64(50+rng.Intn(400)))
		spec := prog.MustProcessSpec("p", iter, int64(rng.Intn(4)),
			prog.StreamRef(arr, prog.Read, iter, 1+int64(rng.Intn(3)), 0))
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
		g, am := randomWorkload(t, rng)
		cfg := DefaultConfig()
		cfg.Cores = 1 + rng.Intn(8)
		cfg.RecordTimeline = true
		var disp Dispatcher
		quantum := int64(0)
		if rng.Intn(2) == 0 {
			quantum = int64(200 + rng.Intn(2000))
		}
		disp = &fifoDispatcher{quantum: quantum}
		res, err := runOnce(g, disp, am, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		if len(res.Completion) != g.Len() {
			t.Fatalf("trial %d: %d completions for %d processes", trial, len(res.Completion), g.Len())
		}
		var totalBusy int64
		for c, st := range res.PerCore {
			if st.BusyCycles < 0 {
				t.Fatalf("trial %d: core %d negative busy", trial, c)
			}
			if st.BusyCycles > res.Cycles {
				t.Fatalf("trial %d: core %d busy %d exceeds makespan %d", trial, c, st.BusyCycles, res.Cycles)
			}
			totalBusy += st.BusyCycles
		}
		wantIdle := int64(cfg.Cores)*res.Cycles - totalBusy
		if res.IdleCycles != wantIdle {
			t.Fatalf("trial %d: idle %d, want %d", trial, res.IdleCycles, wantIdle)
		}
		var segBusy int64
		completedSegs := 0
		for _, s := range res.Timeline {
			segBusy += s.End - s.Start
			if s.Completed {
				completedSegs++
			}
			if s.End > res.Cycles || s.Start < 0 {
				t.Fatalf("trial %d: segment %+v outside [0,%d]", trial, s, res.Cycles)
			}
		}
		if segBusy != totalBusy {
			t.Fatalf("trial %d: segment cycles %d != busy cycles %d", trial, segBusy, totalBusy)
		}
		if completedSegs != g.Len() {
			t.Fatalf("trial %d: %d completing segments for %d processes", trial, completedSegs, g.Len())
		}
		for id, c := range res.Completion {
			if c <= 0 || c > res.Cycles {
				t.Fatalf("trial %d: completion of %v at %d outside (0,%d]", trial, id, c, res.Cycles)
			}
			for _, p := range g.Preds(id) {
				if res.Completion[p] >= c {
					t.Fatalf("trial %d: %v completed at %d, predecessor %v at %d",
						trial, id, c, p, res.Completion[p])
				}
			}
		}
		// Cache accounting.
		if res.Total.Hits+res.Total.Misses() != res.Total.Accesses {
			t.Fatalf("trial %d: cache stats inconsistent: %+v", trial, res.Total)
		}
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
