package sched

import (
	"fmt"
	"sort"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

// CoreBias ranks cores for placement on a heterogeneous machine: it
// returns a placement cost for the core, and lower is better (a faster
// speed class, fewer interconnect hops to memory, or both — callers
// typically build it from mpsoc.Config.CoreCostTable). A nil CoreBias
// means the homogeneous machine: every consumer of the hook must then
// behave bit-identically to its pre-hook self, which the differential
// tests pin. Implementations must be deterministic and side-effect-free.
type CoreBias func(core int) int64

// coreOrder returns the cores in placement-preference order: ascending
// bias, ties toward the lower index. A nil bias yields identity order,
// which makes every order-driven loop below degenerate to the plain
// index scan it replaced.
func coreOrder(cores int, bias CoreBias) []int {
	order := make([]int, cores)
	for i := range order {
		order[i] = i
	}
	if bias != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return bias(order[a]) < bias(order[b])
		})
	}
	return order
}

// LocalitySchedule runs the greedy heuristic of the paper's Figure 3 over
// the EPG and its sharing matrix, producing a static per-core order.
//
// Initialization: the independent processes (EPG roots) are candidates
// for the first quantum. While there are more candidates than cores, the
// candidate with the maximum total sharing with the other candidates is
// deferred back to the pool — concurrent processes should share little
// (sharers are more valuable later, as same-core successors). Note the
// paper's prose ("removes the candidates that have the maximum data
// sharing") and its pseudocode ("Σ M[p][q] is minimized") disagree; we
// follow the prose, which matches the stated goal of keeping the sharing
// between co-runners minimal.
//
// Steady state: each core repeatedly appends the ready process that
// maximizes sharing with the process it ran last. Ties break toward the
// smallest process ID. Cores are served in order of least accumulated
// work (estimated from access counts) rather than strict index order;
// with uniform process sizes this degenerates to the paper's round-robin
// service, and with heterogeneous sizes it keeps the per-core lists
// duration-balanced, which the paper's count-balanced rounds implicitly
// assume. The result is deterministic.
//
// This is the incremental formulation built for 512–1024-core scenarios:
// readiness is tracked with per-process unscheduled-predecessor counters
// and a sorted candidate array maintained as processes retire (so each
// placement scans only the ready set instead of re-sorting and
// re-filtering the whole pool), the first-quantum deferral maintains the
// per-candidate sharing row sums across removals instead of recomputing
// the O(|IN|²) totals per round, and sharing lookups go through matrix
// positions instead of map probes. It is bit-identical to the rescan
// reference implementation kept in this package's tests
// (localityScheduleRescan, rescan_test.go) for every input — the
// differential tests pin both across the Table 1 apps and generated XL
// mixes.
func LocalitySchedule(g *taskgraph.Graph, m *sharing.Matrix, cores int) (*Assignment, error) {
	return LocalityScheduleBiased(g, m, cores, nil)
}

// LocalityScheduleBiased is LocalitySchedule with a machine-model
// placement hook: when bias is non-nil, cores are served in bias order
// instead of index order — the first-quantum seeds land on the
// best-ranked cores, and least-loaded ties in the steady state break
// toward the lower-bias core. The schedule structure (which processes
// run consecutively, and so the sharing the mapping phase exploits) is
// unchanged; only the assignment of per-core lists to physical cores
// shifts toward fast/near cores. A nil bias is exactly LocalitySchedule.
func LocalityScheduleBiased(g *taskgraph.Graph, m *sharing.Matrix, cores int, bias CoreBias) (*Assignment, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("sched: cores %d must be positive", cores)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("sched: nil sharing matrix")
	}

	ids := g.ProcIDs()
	n := len(ids)
	li := make(map[taskgraph.ProcID]int, n) // ID -> local index (sorted-ID order)
	for i, id := range ids {
		li[id] = i
	}

	// Per-process state, indexed locally: matrix position (-1 when the
	// matrix does not cover the process — then it shares 0 with everyone,
	// matching Matrix.Shared), estimated cost, successor lists, and
	// unscheduled-predecessor counters.
	pos := make([]int, n)
	cost := make([]int64, n)
	succs := make([][]int32, n)
	pending := make([]int32, n)
	for i, id := range ids {
		if p, ok := m.Index(id); ok {
			pos[i] = p
		} else {
			pos[i] = -1
		}
		spec := g.Process(id).Spec
		acc, err := spec.Accesses()
		if err != nil {
			return nil, err
		}
		iters, err := spec.Iterations()
		if err != nil {
			return nil, err
		}
		cost[i] = acc + iters*spec.ComputePerIter
		ss := g.Succs(id)
		lst := make([]int32, len(ss))
		for k, s := range ss {
			lst[k] = int32(li[s])
		}
		succs[i] = lst
	}
	for i := range succs {
		for _, s := range succs[i] {
			pending[s]++
		}
	}
	shared := func(a, b int) int64 {
		if pos[a] < 0 || pos[b] < 0 {
			return 0
		}
		return m.SharedAt(pos[a], pos[b])
	}

	// rank = longest remaining dependence chain. The paper's greedy
	// leaves its tie-breaks unspecified; breaking sharing ties toward the
	// deepest chain (classic list scheduling) starts critical chains
	// early instead of by accident of process numbering.
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make([]int, n)
	for i := len(topo) - 1; i >= 0; i-- {
		t := li[topo[i]]
		r := 0
		for _, s := range succs[t] {
			if rank[s]+1 > r {
				r = rank[s] + 1
			}
		}
		rank[t] = r
	}

	inPool := make([]bool, n)
	for i := range inPool {
		inPool[i] = true
	}

	// IN: independent processes (pending == 0, ascending index — the same
	// order g.Roots() yields), candidates for the first quantum.
	var in []int
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			in = append(in, i)
		}
	}
	for _, i := range in {
		inPool[i] = false
	}
	if len(in) > cores {
		// Defer the candidate with maximum total sharing with the others;
		// ties defer the shallowest remaining chain, keeping chain heads
		// in the first quantum. rowSum[x] = Σ_y shared(in[x], in[y]) is
		// seeded once and maintained by subtraction as victims leave, so
		// the loop is O(|IN|²) total instead of O(|IN|³).
		rowSum := make([]int64, len(in))
		for x, p := range in {
			var total int64
			for y, q := range in {
				if x != y {
					total += shared(p, q)
				}
			}
			rowSum[x] = total
		}
		for len(in) > cores {
			victim := -1
			var worst int64 = -1
			for x, p := range in {
				total := rowSum[x]
				switch {
				case total > worst:
					worst = total
					victim = x
				case total == worst && victim >= 0 && rank[p] < rank[in[victim]]:
					victim = x
				}
			}
			deferred := in[victim]
			in = append(in[:victim], in[victim+1:]...)
			rowSum = append(rowSum[:victim], rowSum[victim+1:]...)
			for x, p := range in {
				rowSum[x] -= shared(p, deferred)
			}
			inPool[deferred] = true
		}
	}

	asg := &Assignment{PerCore: make([][]taskgraph.ProcID, cores)}
	load := make([]int64, cores)
	last := make([]int, cores) // local index of each core's last process
	for k := range last {
		last[k] = -1
	}
	remaining := 0
	for _, p := range inPool {
		if p {
			remaining++
		}
	}

	// ready: the candidate ordering — pool processes whose predecessors
	// are all scheduled, as ascending local indices (≡ ascending ProcID).
	// Seeded with the deferred roots, then maintained as processes
	// retire: scheduling a process decrements its successors' pending
	// counters, and counters hitting zero insert in order.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if inPool[i] && pending[i] == 0 {
			ready = append(ready, i)
		}
	}
	retire := func(i int) {
		for _, s := range succs[i] {
			pending[s]--
			if pending[s] == 0 && inPool[s] {
				at := sort.SearchInts(ready, int(s))
				ready = append(ready, 0)
				copy(ready[at+1:], ready[at:])
				ready[at] = int(s)
			}
		}
	}
	// order is the core service sequence: identity for the homogeneous
	// machine, bias-ascending for heterogeneous ones. Seeds fill the
	// best-ranked cores first.
	order := coreOrder(cores, bias)
	for x, i := range in {
		k := order[x]
		asg.PerCore[k] = append(asg.PerCore[k], ids[i])
		load[k] += cost[i]
		last[k] = i
		retire(i)
	}

	// Main loop: the least-loaded core (ties toward the lower index)
	// appends the ready process with maximum sharing with its last one;
	// sharing ties break toward the deepest remaining chain, then the
	// smallest ID (the ready array is scanned in ID order). One placement
	// costs O(|ready| + cores + out-degree).
	for remaining > 0 {
		if len(ready) == 0 {
			return nil, fmt.Errorf("sched: no eligible process among %d remaining (graph inconsistent?)", remaining)
		}
		// Least-loaded scan walks the service sequence, so load ties break
		// toward the lower-bias core (lower index when unbiased).
		k := order[0]
		for _, c := range order[1:] {
			if load[c] < load[k] {
				k = c
			}
		}
		prev := last[k]
		bestX := -1
		var bestShare int64 = -1
		bestRank := -1
		for x, q := range ready {
			var share int64
			if prev >= 0 {
				share = shared(prev, q)
			}
			if bestX < 0 || share > bestShare || (share == bestShare && rank[q] > bestRank) {
				bestX, bestShare, bestRank = x, share, rank[q]
			}
		}
		q := ready[bestX]
		ready = append(ready[:bestX], ready[bestX+1:]...)
		asg.PerCore[k] = append(asg.PerCore[k], ids[q])
		load[k] += cost[q]
		last[k] = q
		inPool[q] = false
		remaining--
		retire(q)
	}
	return asg, nil
}

// NewLS builds the LS dispatcher: the Figure 3 schedule replayed
// statically.
func NewLS(g *taskgraph.Graph, m *sharing.Matrix, cores int) (*Static, *Assignment, error) {
	asg, err := LocalitySchedule(g, m, cores)
	if err != nil {
		return nil, nil, err
	}
	return NewStatic("LS", asg), asg, nil
}

// MappingResult carries what the LSM pipeline derived beyond the
// schedule.
type MappingResult struct {
	// Assignment is the LS schedule the mapping phase was derived from.
	Assignment *Assignment
	// Conflicts is the co-access conflict matrix of Figure 5.
	Conflicts *layout.ConflictMatrix
	// Threshold is the conflict weight above which pairs were separated.
	Threshold int64
	// Banks records the chosen half-page bank per re-laid-out array.
	Banks map[*prog.Array]int64
	// Layout is the address map handed to the simulator: the re-laid-out
	// map, or base itself when Banks is empty, so a mapping that moved
	// nothing simulates on (and pools runners under) the base layout.
	Layout layout.AddressMap
	// PressureBefore and PressureAfter record the static thrash pressure
	// of the base and final layouts.
	PressureBefore int64
	// PressureAfter is the final layout's pressure (see PressureBefore).
	PressureAfter int64
	// Verified reports whether the mapping achieved a strict improvement
	// (otherwise Banks is empty and Layout is the base layout — the
	// mapping phase must never make things worse).
	Verified bool
}

// NewLSM builds the LSM dispatcher: the LS schedule plus the data-mapping
// phase of Figures 4–5. The conflict matrix is computed over co-access
// groups — the arrays of each single process, and the merged arrays of
// each pair of processes scheduled successively on one core — which makes
// Figure 5's eligibility condition implicit: pairs never co-accessed
// carry zero weight. The greedy selection then re-lays the heavy pairs
// out into opposite cache-set banks, and the transformed address map is
// returned for simulation.
//
// asg may carry a precomputed LS assignment for (g, cores) — callers
// that memoize the analysis (experiment's workload families) pass theirs
// so LS+LSM pipelines run LocalitySchedule once per (graph, cores)
// instead of once per policy. When asg is nil it is computed here from m; when asg is
// supplied, m is not consulted (the mapping phase depends only on the
// assignment and the data spaces) and may be nil.
func NewLSM(g *taskgraph.Graph, m *sharing.Matrix, asg *Assignment, cores int,
	base layout.AddressMap, geom cache.Geometry, an *sharing.Analyzer) (*Static, *MappingResult, error) {

	if asg == nil {
		var err error
		asg, err = LocalitySchedule(g, m, cores)
		if err != nil {
			return nil, nil, err
		}
	}
	if an == nil {
		an = sharing.NewAnalyzer()
	}

	perProc := make(map[taskgraph.ProcID]layout.Footprints, g.Len())
	for _, p := range g.Processes() {
		ds, err := an.DataSpace(p.Spec)
		if err != nil {
			return nil, nil, err
		}
		perProc[p.ID] = layout.Footprints(ds)
	}

	// Single-process groups: arrays referenced in lockstep, whose set
	// overflows thrash on every iteration. Successive-pair groups: arrays
	// of processes adjacent on one core, whose conflicts evict warm data
	// between the two executions.
	var procGroups []layout.VerifyGroup
	var allGroups []layout.Footprints
	for _, id := range g.ProcIDs() {
		refs := make(map[*prog.Array]int)
		for _, r := range g.Process(id).Spec.Refs {
			refs[r.Array]++
		}
		procGroups = append(procGroups, layout.VerifyGroup{FP: perProc[id], Refs: refs})
		allGroups = append(allGroups, perProc[id])
	}
	for _, pair := range asg.SuccessivePairs() {
		allGroups = append(allGroups, perProc[pair[0]].Merge(perProc[pair[1]]))
	}

	cm, err := layout.Conflicts(allGroups, base, geom)
	if err != nil {
		return nil, nil, err
	}
	threshold := cm.AverageThreshold()
	// Greedy selection with per-step pressure verification (engineering
	// addition over the paper): a bank assignment is kept only when it
	// strictly lowers the lockstep thrash pressure of the single-process
	// groups, guarding against the transform creating conflicts where
	// none existed.
	banks, pBefore, pAfter, err := layout.SelectRelayoutVerified(procGroups, cm, base, threshold, geom)
	if err != nil {
		return nil, nil, err
	}
	am := base
	if len(banks) > 0 {
		if am, err = layout.ApplyRelayout(base, geom, banks); err != nil {
			return nil, nil, err
		}
	}
	res := &MappingResult{
		Assignment:     asg,
		Conflicts:      cm,
		Threshold:      threshold,
		Banks:          banks,
		Layout:         am,
		PressureBefore: pBefore,
		PressureAfter:  pAfter,
		Verified:       pAfter < pBefore,
	}
	return NewStatic("LSM", asg), res, nil
}
