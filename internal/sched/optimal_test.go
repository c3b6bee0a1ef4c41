package sched

import (
	"math/rand"
	"testing"

	"locsched/internal/prog"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

// TestOptimalReproducesFigure2b: on the paper's running example (eight
// processes with the banded sharing matrix) and four cores, the optimal
// schedule pairs neighbouring processes on each core — exactly the
// "good mapping" of the paper's Figure 2(b), with total successive
// sharing 4 × 2000 = 8000 elements. The greedy of Figure 3 reaches 6000
// (the paper itself notes it "does not generate the best results in all
// cases"); the exact DP quantifies that gap.
func TestOptimalReproducesFigure2b(t *testing.T) {
	g, m := figure1Graph(t)
	optAsg, optTotal, err := OptimalSchedule(g, m, 4)
	if err != nil {
		t.Fatalf("OptimalSchedule: %v", err)
	}
	if optTotal != 8000 {
		t.Errorf("optimal sharing = %d, want 8000 (Figure 2(b) pairing)", optTotal)
	}
	if got := SharingOf(optAsg, m); got != optTotal {
		t.Errorf("SharingOf(optimal) = %d, want %d", got, optTotal)
	}
	// Every core must hold a neighbouring pair.
	for c, l := range optAsg.PerCore {
		if len(l) != 2 {
			t.Fatalf("core %d holds %v, want a pair", c, l)
		}
		d := l[0].Idx - l[1].Idx
		if d != 1 && d != -1 {
			t.Errorf("core %d pairs non-neighbours %v", c, l)
		}
	}

	lsAsg, err := LocalitySchedule(g, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	lsTotal := SharingOf(lsAsg, m)
	if lsTotal > optTotal {
		t.Errorf("greedy sharing %d exceeds the optimum %d", lsTotal, optTotal)
	}
	if lsTotal != 6000 {
		t.Errorf("greedy sharing = %d, want 6000 (the documented gap)", lsTotal)
	}
}

func TestOptimalValidation(t *testing.T) {
	g, m := figure1Graph(t)
	if _, _, err := OptimalSchedule(g, m, 0); err == nil {
		t.Error("zero cores should fail")
	}
	if _, _, err := OptimalSchedule(taskgraph.New(), m, 2); err == nil {
		t.Error("empty graph should fail")
	}
}

func TestOptimalTooLargeRejected(t *testing.T) {
	arr := prog.MustArray("A", 4, 10000)
	g := taskgraph.New()
	for i := 0; i < MaxOptimalProcs+1; i++ {
		iter := prog.Seg("i", 0, 10)
		spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(arr, prog.Read, iter, 1, 0))
		if err := g.AddProcess(&taskgraph.Process{ID: pid(0, i), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sharing.ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OptimalSchedule(g, m, 2); err == nil {
		t.Error("oversized instance should be rejected")
	}
}

// TestOptimalDominatesGreedyRandomized: on random small instances the
// exact schedule's objective must upper-bound the greedy's, the optimal
// assignment must be dependence-consistent, and the greedy should reach
// a reasonable fraction of the optimum on average.
func TestOptimalDominatesGreedyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	arr := prog.MustArray("A", 4, 100000)
	var sumOpt, sumGreedy int64
	for trial := 0; trial < 25; trial++ {
		g := taskgraph.New()
		n := 4 + rng.Intn(5) // 4..8 processes
		ids := make([]taskgraph.ProcID, n)
		for i := 0; i < n; i++ {
			lo := int64(rng.Intn(50)) * 100
			iter := prog.Seg("i", lo, lo+int64(100+rng.Intn(400)))
			spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(arr, prog.Read, iter, 1, 0))
			ids[i] = pid(0, i)
			if err := g.AddProcess(&taskgraph.Process{ID: ids[i], Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(5) == 0 {
					if err := g.AddDep(ids[i], ids[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		m, err := sharing.ComputeMatrixParallel(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		cores := 2 + rng.Intn(2)
		optAsg, optTotal, err := OptimalSchedule(g, m, cores)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := SharingOf(optAsg, m); got != optTotal {
			t.Fatalf("trial %d: reconstruction objective %d != DP value %d", trial, got, optTotal)
		}
		if optAsg.Len() != n {
			t.Fatalf("trial %d: optimal covers %d of %d", trial, optAsg.Len(), n)
		}
		// Dependence consistency: union of deps and per-core orders must
		// admit a topological order (checked via simulated emit order).
		order := map[taskgraph.ProcID]int{}
		emitted := 0
		next := make([]int, len(optAsg.PerCore))
		for emitted < n {
			progress := false
			for c, l := range optAsg.PerCore {
				for next[c] < len(l) {
					id := l[next[c]]
					ready := true
					for _, p := range g.Preds(id) {
						if _, done := order[p]; !done {
							ready = false
							break
						}
					}
					if !ready {
						break
					}
					order[id] = emitted
					emitted++
					next[c]++
					progress = true
				}
			}
			if !progress {
				t.Fatalf("trial %d: optimal assignment is dependence-infeasible:\n%v", trial, optAsg)
			}
		}

		lsAsg, err := LocalitySchedule(g, m, cores)
		if err != nil {
			t.Fatal(err)
		}
		lsTotal := SharingOf(lsAsg, m)
		if lsTotal > optTotal {
			t.Fatalf("trial %d: greedy %d beats 'optimal' %d", trial, lsTotal, optTotal)
		}
		sumOpt += optTotal
		sumGreedy += lsTotal
	}
	// On adversarial random instances the greedy lands around half the
	// optimum (the initial trim defers exactly the heaviest sharers, and
	// the per-core choice is myopic) — a measured counterpart to the
	// paper's remark that the greedy "does not generate the best results
	// in all cases". Structured pipeline workloads fare much better (see
	// TestOptimalReproducesFigure2b: 75% there, and the Figure 6/7 wins).
	if sumOpt > 0 && sumGreedy*10 < sumOpt*4 {
		t.Errorf("greedy reaches only %d of %d total optimal sharing (< 40%%)", sumGreedy, sumOpt)
	}
}
