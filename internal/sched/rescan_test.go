package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

// localityScheduleRescan is the reference implementation of the Figure 3
// greedy: it re-derives the candidate set from scratch for every
// placement (a full pool scan with per-candidate predecessor checks) and
// recomputes the pairwise sharing totals of the first-quantum deferral
// loop each round. It is O(P² log P) in the process count and is kept
// verbatim as the differential oracle for the incremental
// LocalitySchedule, which must be bit-identical to it.
func localityScheduleRescan(g *taskgraph.Graph, m *sharing.Matrix, cores int) (*Assignment, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("sched: cores %d must be positive", cores)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("sched: nil sharing matrix")
	}

	cost := make(map[taskgraph.ProcID]int64, g.Len())
	for _, p := range g.Processes() {
		acc, err := p.Spec.Accesses()
		if err != nil {
			return nil, err
		}
		iters, err := p.Spec.Iterations()
		if err != nil {
			return nil, err
		}
		cost[p.ID] = acc + iters*p.Spec.ComputePerIter
	}

	// rank = longest remaining dependence chain (see LocalitySchedule).
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make(map[taskgraph.ProcID]int, len(topo))
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		r := 0
		for _, s := range g.Succs(id) {
			if rank[s]+1 > r {
				r = rank[s] + 1
			}
		}
		rank[id] = r
	}

	scheduled := make(map[taskgraph.ProcID]bool, g.Len())
	inPool := make(map[taskgraph.ProcID]bool, g.Len())
	for _, id := range g.ProcIDs() {
		inPool[id] = true
	}

	// IN: independent processes, candidates for the first quantum.
	in := g.Roots()
	for _, id := range in {
		delete(inPool, id)
	}
	for len(in) > cores {
		// Defer the candidate with maximum total sharing with the others;
		// ties defer the shallowest remaining chain, keeping chain heads
		// in the first quantum.
		victim := -1
		var worst int64 = -1
		for i, p := range in {
			var total int64
			for j, q := range in {
				if i != j {
					total += m.Shared(p, q)
				}
			}
			switch {
			case total > worst:
				worst = total
				victim = i
			case total == worst && victim >= 0 && rank[p] < rank[in[victim]]:
				victim = i
			}
		}
		deferred := in[victim]
		in = append(in[:victim], in[victim+1:]...)
		inPool[deferred] = true
	}

	asg := &Assignment{PerCore: make([][]taskgraph.ProcID, cores)}
	load := make([]int64, cores)
	for i, id := range in {
		asg.PerCore[i] = append(asg.PerCore[i], id)
		load[i] += cost[id]
		scheduled[id] = true
	}

	// Main loop: the least-loaded core picks the eligible process with
	// maximum sharing with its previously scheduled process. The order and
	// candidate scratch slices are allocated once and reused across
	// iterations (the loop runs once per process).
	remaining := len(inPool)
	order := make([]int, cores)
	candidates := make([]taskgraph.ProcID, 0, remaining)
	for remaining > 0 {
		progress := false
		for _, k := range coresByLoad(load, order) {
			q, ok := pickNext(g, m, rank, asg.PerCore[k], inPool, scheduled, &candidates)
			if !ok {
				continue
			}
			asg.PerCore[k] = append(asg.PerCore[k], q)
			load[k] += cost[q]
			scheduled[q] = true
			delete(inPool, q)
			remaining--
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("sched: no eligible process among %d remaining (graph inconsistent?)", remaining)
		}
	}
	return asg, nil
}

// coresByLoad fills idx with core indices ordered by ascending
// accumulated load, ties toward the lower index.
func coresByLoad(load []int64, idx []int) []int {
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(load[a], load[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// pickNext selects the unscheduled process all of whose predecessors are
// scheduled, maximizing sharing with the core's last process. Sharing
// ties break toward the deepest remaining chain, then the smallest ID.
// scratch is a reusable candidate buffer (see sortedIDs).
func pickNext(g *taskgraph.Graph, m *sharing.Matrix, rank map[taskgraph.ProcID]int,
	coreList []taskgraph.ProcID, pool map[taskgraph.ProcID]bool,
	scheduled map[taskgraph.ProcID]bool, scratch *[]taskgraph.ProcID) (taskgraph.ProcID, bool) {

	var prev taskgraph.ProcID
	hasPrev := len(coreList) > 0
	if hasPrev {
		prev = coreList[len(coreList)-1]
	}
	best := taskgraph.ProcID{}
	var bestShare int64 = -1
	bestRank := -1
	found := false
	for _, q := range sortedIDs(pool, scratch) {
		eligible := true
		for _, p := range g.Preds(q) {
			if !scheduled[p] {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		var share int64
		if hasPrev {
			share = m.Shared(prev, q)
		}
		if !found || share > bestShare || (share == bestShare && rank[q] > bestRank) {
			best, bestShare, bestRank, found = q, share, rank[q], true
		}
	}
	return best, found
}

func sortedIDs(pool map[taskgraph.ProcID]bool, scratch *[]taskgraph.ProcID) []taskgraph.ProcID {
	out := (*scratch)[:0]
	for id := range pool {
		out = append(out, id)
	}
	slices.SortFunc(out, func(a, b taskgraph.ProcID) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	*scratch = out
	return out
}

// BenchmarkLocalityScheduleXL measures the rescan oracle on the XL
// ladder's generated mixes (tasks = cores/4), the inputs the root
// package's BenchmarkLocalityScheduleXL gives the incremental greedy, so
// the two can be compared.
func BenchmarkLocalityScheduleXL(b *testing.B) {
	for _, cores := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			g, m := xlMixGraph(b, cores/4)
			b.Run("rescan", func(b *testing.B) {
				b.ReportMetric(float64(g.Len()), "procs")
				for i := 0; i < b.N; i++ {
					if _, err := localityScheduleRescan(g, m, cores); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
