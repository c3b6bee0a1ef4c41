package sched

import (
	"math/rand"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/mpsoc"
	"locsched/internal/prog"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

func pid(task, idx int) taskgraph.ProcID { return taskgraph.ProcID{Task: task, Idx: idx} }

// figure1Graph builds the paper's Prog1 (Figure 1): eight independent
// processes with the banded sharing matrix of Figure 2(a).
func figure1Graph(t *testing.T) (*taskgraph.Graph, *sharing.Matrix) {
	t.Helper()
	a := prog.MustArray("A", 1, 16000, 10)
	g := taskgraph.New()
	for k := int64(0); k < 8; k++ {
		iter := prog.Seg("i2", 0, 3000)
		spec := prog.MustProcessSpec("P", iter, 1,
			prog.Ref2D(a, prog.Read, iter.Space(), []int64{1}, k*1000, nil, 5))
		if err := g.AddProcess(&taskgraph.Process{ID: pid(0, int(k)), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sharing.ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// TestLocalityScheduleFigure2 pins down the deterministic Figure 3 output
// on the paper's running example with four cores. The greedy trims the
// candidate set {P0..P7} by repeatedly deferring the max-sharing
// candidate (P2, P5, P1, P4), then pairs each remaining core-starter with
// its best-sharing successor.
func TestLocalityScheduleFigure2(t *testing.T) {
	g, m := figure1Graph(t)
	asg, err := LocalitySchedule(g, m, 4)
	if err != nil {
		t.Fatalf("LocalitySchedule: %v", err)
	}
	want := [][]taskgraph.ProcID{
		{pid(0, 0), pid(0, 1)},
		{pid(0, 3), pid(0, 2)},
		{pid(0, 6), pid(0, 5)},
		{pid(0, 7), pid(0, 4)},
	}
	if len(asg.PerCore) != len(want) {
		t.Fatalf("cores = %d, want %d", len(asg.PerCore), len(want))
	}
	for c := range want {
		if len(asg.PerCore[c]) != len(want[c]) {
			t.Fatalf("core %d has %v, want %v", c, asg.PerCore[c], want[c])
		}
		for i := range want[c] {
			if asg.PerCore[c][i] != want[c][i] {
				t.Errorf("core %d slot %d = %v, want %v\nfull:\n%v",
					c, i, asg.PerCore[c][i], want[c][i], asg)
			}
		}
	}
	// Quality: three of the four successive pairs share 2000 elements
	// (the greedy is not optimal, as the paper itself notes).
	var total int64
	for _, pair := range asg.SuccessivePairs() {
		total += m.Shared(pair[0], pair[1])
	}
	if total < 6000 {
		t.Errorf("successive-pair sharing = %d, want >= 6000", total)
	}
}

func TestLocalityScheduleCoversAllOnce(t *testing.T) {
	g, m := figure1Graph(t)
	asg, err := LocalitySchedule(g, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[taskgraph.ProcID]int)
	for _, l := range asg.PerCore {
		for _, id := range l {
			seen[id]++
		}
	}
	if len(seen) != g.Len() {
		t.Errorf("scheduled %d distinct processes, want %d", len(seen), g.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("process %v scheduled %d times", id, n)
		}
	}
}

func TestLocalityScheduleValidation(t *testing.T) {
	g, m := figure1Graph(t)
	if _, err := LocalitySchedule(g, m, 0); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := LocalitySchedule(g, nil, 2); err == nil {
		t.Error("nil matrix should fail")
	}
}

func TestLocalityScheduleRespectsDependences(t *testing.T) {
	// Chain with sharing pulling the wrong way: the scheduler must never
	// emit a process before its predecessor, even when sharing tempts it.
	arr := prog.MustArray("A", 4, 10000)
	g := taskgraph.New()
	for i := 0; i < 6; i++ {
		iter := prog.Seg("i", int64(i)*100, int64(i)*100+200)
		spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(arr, prog.Read, iter, 1, 0))
		if err := g.AddProcess(&taskgraph.Process{ID: pid(0, i), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	// 0 -> 4, 1 -> 5, 4 -> 5.
	for _, e := range [][2]int{{0, 4}, {1, 5}, {4, 5}} {
		if err := g.AddDep(pid(0, e[0]), pid(0, e[1])); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sharing.ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := LocalitySchedule(g, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Global emit order = core-round order; rebuild it and check preds.
	order := make(map[taskgraph.ProcID]int)
	pos := 0
	maxLen := 0
	for _, l := range asg.PerCore {
		if len(l) > maxLen {
			maxLen = len(l)
		}
	}
	for round := 0; round < maxLen; round++ {
		for _, l := range asg.PerCore {
			if round < len(l) {
				order[l[round]] = pos
				pos++
			}
		}
	}
	for _, id := range g.ProcIDs() {
		for _, p := range g.Preds(id) {
			if order[p] >= order[id] {
				t.Errorf("process %v emitted before predecessor %v\n%v", id, p, asg)
			}
		}
	}
}

func TestRandomDispatcherDeterministic(t *testing.T) {
	mk := func() []taskgraph.ProcID {
		r := NewRandom(42)
		for i := 0; i < 5; i++ {
			r.Ready(pid(0, i))
		}
		var picked []taskgraph.ProcID
		for {
			id, q, ok := r.Pick(0, 0)
			if !ok {
				break
			}
			if q != 0 {
				t.Fatalf("RS quantum = %d, want 0 (run to completion)", q)
			}
			picked = append(picked, id)
		}
		return picked
	}
	a, b := mk(), mk()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("picked %d/%d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different orders: %v vs %v", a, b)
		}
	}
	if NewRandom(1).Name() != "RS" {
		t.Error("name should be RS")
	}
}

func TestRoundRobinFIFO(t *testing.T) {
	r := MustRoundRobin(100)
	if r.Name() != "RRS" {
		t.Error("name should be RRS")
	}
	r.Ready(pid(0, 0))
	r.Ready(pid(0, 1))
	id, q, ok := r.Pick(0, 0)
	if !ok || id != pid(0, 0) || q != 100 {
		t.Fatalf("Pick = %v,%d,%v", id, q, ok)
	}
	r.Preempted(id) // rejoins at tail, behind P0.1
	id2, _, _ := r.Pick(1, 0)
	if id2 != pid(0, 1) {
		t.Errorf("second pick = %v, want P0.1", id2)
	}
	id3, _, _ := r.Pick(0, 0)
	if id3 != pid(0, 0) {
		t.Errorf("third pick = %v, want requeued P0.0", id3)
	}
	if _, _, ok := r.Pick(0, 0); ok {
		t.Error("empty queue should report !ok")
	}
}

func TestRoundRobinValidation(t *testing.T) {
	if _, err := NewRoundRobin(0); err == nil {
		t.Error("zero quantum should fail")
	}
	if _, err := NewRoundRobin(-5); err == nil {
		t.Error("negative quantum should fail")
	}
}

func TestStaticWaitsForReadiness(t *testing.T) {
	asg := &Assignment{PerCore: [][]taskgraph.ProcID{{pid(0, 0), pid(0, 1)}}}
	s := NewStatic("LS", asg)
	if _, _, ok := s.Pick(0, 0); ok {
		t.Error("should not pick before Ready")
	}
	s.Ready(pid(0, 0))
	id, q, ok := s.Pick(0, 0)
	if !ok || id != pid(0, 0) || q != 0 {
		t.Fatalf("Pick = %v,%d,%v", id, q, ok)
	}
	// Next pinned process not ready yet.
	if _, _, ok := s.Pick(0, 0); ok {
		t.Error("should wait for next pinned process")
	}
	s.Ready(pid(0, 1))
	if id, _, ok := s.Pick(0, 0); !ok || id != pid(0, 1) {
		t.Errorf("Pick = %v,%v", id, ok)
	}
	// Exhausted.
	if _, _, ok := s.Pick(0, 0); ok {
		t.Error("exhausted core should report !ok")
	}
	// Out-of-range core.
	if _, _, ok := s.Pick(99, 0); ok {
		t.Error("unknown core should report !ok")
	}
}

func TestStaticPreemptPanics(t *testing.T) {
	s := NewStatic("LS", &Assignment{PerCore: [][]taskgraph.ProcID{{}}})
	defer func() {
		if recover() == nil {
			t.Error("Preempted on static policy should panic")
		}
	}()
	s.Preempted(pid(0, 0))
}

func TestAssignmentHelpers(t *testing.T) {
	asg := &Assignment{PerCore: [][]taskgraph.ProcID{
		{pid(0, 0), pid(0, 1)},
		{pid(0, 2)},
	}}
	if asg.Cores() != 2 || asg.Len() != 3 {
		t.Errorf("Cores/Len = %d/%d", asg.Cores(), asg.Len())
	}
	if asg.CoreOf(pid(0, 1)) != 0 || asg.CoreOf(pid(0, 2)) != 1 {
		t.Error("CoreOf wrong")
	}
	if asg.CoreOf(pid(9, 9)) != -1 {
		t.Error("unknown process should map to -1")
	}
	pairs := asg.SuccessivePairs()
	if len(pairs) != 1 || pairs[0] != [2]taskgraph.ProcID{pid(0, 0), pid(0, 1)} {
		t.Errorf("SuccessivePairs = %v", pairs)
	}
	if asg.String() == "" {
		t.Error("String should be non-empty")
	}
}

// TestLSRunsOnRandomDAGs property: the full LS pipeline (matrix →
// schedule → static dispatch → simulation) never deadlocks on random
// DAGs and always completes every process.
func TestLSRunsOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	arr := prog.MustArray("A", 4, 100000)
	for trial := 0; trial < 30; trial++ {
		g := taskgraph.New()
		n := 3 + rng.Intn(12)
		for i := 0; i < n; i++ {
			lo := int64(rng.Intn(300)) * 10
			iter := prog.Seg("i", lo, lo+int64(100+rng.Intn(300)))
			spec := prog.MustProcessSpec("p", iter, 1, prog.StreamRef(arr, prog.Read, iter, 1, 0))
			if err := g.AddProcess(&taskgraph.Process{ID: pid(0, i), Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(5) == 0 {
					if err := g.AddDep(pid(0, i), pid(0, j)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		m, err := sharing.ComputeMatrixParallel(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		cores := 1 + rng.Intn(4)
		disp, asg, err := NewLS(g, m, cores)
		if err != nil {
			t.Fatalf("trial %d: NewLS: %v", trial, err)
		}
		if asg.Len() != n {
			t.Fatalf("trial %d: assignment covers %d of %d", trial, asg.Len(), n)
		}
		cfg := mpsoc.DefaultConfig()
		cfg.Cores = cores
		res, err := simulate(g, disp, layout.MustPack(32, arr), cfg)
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		if len(res.Completion) != n {
			t.Fatalf("trial %d: completed %d of %d", trial, len(res.Completion), n)
		}
		// Dependences honored at runtime.
		for _, id := range g.ProcIDs() {
			for _, p := range g.Preds(id) {
				if res.Completion[p] >= res.Completion[id] {
					t.Fatalf("trial %d: %v finished at %d, its predecessor %v at %d",
						trial, id, res.Completion[id], p, res.Completion[p])
				}
			}
		}
	}
}

// TestLSMEliminatesConflicts reproduces the paper's data-mapping effect
// in miniature: a chain A1(X) → B1(Y) → A2(X) on one core with a
// direct-mapped cache and page-aligned aliasing arrays. Without the
// mapping phase B1 evicts all of X between A1 and A2; with it, X and Y
// live in disjoint cache-set banks.
func TestLSMEliminatesConflicts(t *testing.T) {
	geom := cache.Geometry{Size: 8 * 1024, BlockSize: 32, Assoc: 1} // direct-mapped, C = 8KB
	x := prog.MustArray("X", 4, 1024)                               // 4KB
	y := prog.MustArray("Y", 4, 1024)                               // 4KB
	z := prog.MustArray("Z", 4, 8)                                  // tiny third array pulls the average threshold below max

	g := taskgraph.New()
	mkProc := func(idx int, arr *prog.Array) taskgraph.ProcID {
		iter := prog.Seg("i", 0, arr.Elems())
		spec := prog.MustProcessSpec("p", iter, 0,
			prog.StreamRef(arr, prog.Read, iter, 1, 0),
			prog.StreamRef(z, prog.Read, iter, 0, int64(idx)%z.Elems()),
		)
		id := pid(0, idx)
		if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	a1 := mkProc(0, x)
	b1 := mkProc(1, y)
	a2 := mkProc(2, x)
	if err := g.AddDep(a1, b1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDep(b1, a2); err != nil {
		t.Fatal(err)
	}

	// Page-aligned packing makes X and Y alias set-for-set.
	base := layout.MustPack(geom.PageSize(), x, y, z)
	m, err := sharing.ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpsoc.DefaultConfig()
	cfg.Cores = 1
	cfg.Cache = geom

	lsDisp, _, err := NewLS(g, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	lsRes, err := simulate(g, lsDisp, base, cfg)
	if err != nil {
		t.Fatal(err)
	}

	lsmDisp, mapping, err := NewLSM(g, m, nil, 1, base, geom, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mapping.Banks) < 2 {
		t.Fatalf("LSM selected banks %v, want X and Y separated (conflicts:\n%v, threshold %d)",
			mapping.Banks, mapping.Conflicts, mapping.Threshold)
	}
	if mapping.Banks[x] == mapping.Banks[y] {
		t.Fatalf("X and Y must be in opposite banks: %v", mapping.Banks)
	}
	lsmRes, err := simulate(g, lsmDisp, mapping.Layout, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if lsmRes.Total.Conflict >= lsRes.Total.Conflict {
		t.Errorf("LSM conflict misses %d should be below LS's %d",
			lsmRes.Total.Conflict, lsRes.Total.Conflict)
	}
	if lsmRes.Cycles >= lsRes.Cycles {
		t.Errorf("LSM (%d cycles) should beat LS (%d cycles) here", lsmRes.Cycles, lsRes.Cycles)
	}
}

// TestPoliciesCompleteEverything runs all four policies over one graph
// and checks they all finish all processes with identical total access
// counts.
func TestPoliciesCompleteEverything(t *testing.T) {
	g, m := figure1Graph(t)
	var arrs []*prog.Array
	seen := map[*prog.Array]bool{}
	for _, p := range g.Processes() {
		for _, a := range p.Spec.Arrays() {
			if !seen[a] {
				seen[a] = true
				arrs = append(arrs, a)
			}
		}
	}
	base := layout.MustPack(32, arrs...)
	cfg := mpsoc.DefaultConfig()
	cfg.Cores = 4

	lsDisp, _, err := NewLS(g, m, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	lsmDisp, mapping, err := NewLSM(g, m, nil, cfg.Cores, base, cfg.Cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		d  mpsoc.Dispatcher
		am layout.AddressMap
	}{
		{NewRandom(7), base},
		{MustRoundRobin(DefaultQuantum), base},
		{lsDisp, base},
		{lsmDisp, mapping.Layout},
	}
	var accesses []int64
	for _, r := range runs {
		res, err := simulate(g, r.d, r.am, cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.d.Name(), err)
		}
		if len(res.Completion) != g.Len() {
			t.Errorf("%s completed %d of %d", r.d.Name(), len(res.Completion), g.Len())
		}
		accesses = append(accesses, res.Total.Accesses)
	}
	for i := 1; i < len(accesses); i++ {
		if accesses[i] != accesses[0] {
			t.Errorf("policy %d issued %d accesses, policy 0 issued %d",
				i, accesses[i], accesses[0])
		}
	}
}
