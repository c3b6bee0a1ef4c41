package sharing

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"locsched/internal/prog"
	"locsched/internal/prog/progtest"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// matchesOracle checks every cell of got, by position and by ID, against
// the oracle's dense rows, and checks the component layout.
func matchesOracle(t *testing.T, g *taskgraph.Graph, want [][]int64, got *Matrix) {
	t.Helper()
	ids := g.ProcIDs()
	if gids := got.IDs(); !slices.Equal(gids, ids) {
		t.Fatalf("matrix order: want %v, got %v", ids, gids)
	}
	checkLayout(t, got)
	for i, a := range ids {
		for j, b := range ids {
			w := want[i][j]
			if c := got.SharedAt(i, j); c != w {
				t.Fatalf("SharedAt(%d,%d) [%v,%v]: want %d, got %d", i, j, a, b, w, c)
			}
			if c := got.Shared(a, b); c != w {
				t.Fatalf("Shared(%v,%v): want %d, got %d", a, b, w, c)
			}
		}
	}
}

// checkLayout checks the component layout: components are numbered by
// their smallest position, members in ascending position order take
// consecutive local indices, and the k×k blocks lie in cells in
// component order with nothing else retained.
func checkLayout(t *testing.T, m *Matrix) {
	t.Helper()
	var size []int
	for i, s := range m.at {
		if int(s.comp) > len(size) {
			t.Fatalf("position %d opens component %d after %d components", i, s.comp, len(size))
		}
		if int(s.comp) == len(size) {
			size = append(size, 0)
		}
		if int(s.local) != size[s.comp] {
			t.Fatalf("position %d: local index %d in component %d, want %d", i, s.local, s.comp, size[s.comp])
		}
		size[s.comp]++
	}
	offs := make([]int, len(size)+1)
	for c, k := range size {
		offs[c+1] = offs[c] + k*k
	}
	for i, s := range m.at {
		if want := offs[s.comp] + int(s.local)*size[s.comp]; s.row != want {
			t.Fatalf("position %d: row %d, want %d", i, s.row, want)
		}
	}
	if len(m.cells) != offs[len(size)] {
		t.Fatalf("%d cells retained, components hold %d", len(m.cells), offs[len(size)])
	}
}

// componentCells returns Σk² over the sharing components of g, found by
// a breadth-first search that links two processes when both touch an
// element of a common array.
func componentCells(t *testing.T, an *Analyzer, g *taskgraph.Graph) int {
	t.Helper()
	ids := g.ProcIDs()
	spaces := make([]DataSpace, len(ids))
	users := make(map[*prog.Array][]int)
	for i, id := range ids {
		ds, err := an.DataSpace(g.Process(id).Spec)
		if err != nil {
			t.Fatal(err)
		}
		spaces[i] = ds
		for arr, s := range ds {
			if !s.IsEmpty() {
				users[arr] = append(users[arr], i)
			}
		}
	}
	seen := make([]bool, len(ids))
	cells := 0
	for i := range ids {
		if seen[i] {
			continue
		}
		seen[i] = true
		k := 0
		for queue := []int{i}; len(queue) > 0; queue = queue[1:] {
			k++
			for arr, s := range spaces[queue[0]] {
				if s.IsEmpty() {
					continue
				}
				for _, q := range users[arr] {
					if !seen[q] {
						seen[q] = true
						queue = append(queue, q)
					}
				}
			}
		}
		cells += k * k
	}
	return cells
}

// xlGraph builds a generated multi-program mix EPG (tasks share nothing
// across task boundaries — the large-scale scenario shape).
func xlGraph(t testing.TB, tasks int) *taskgraph.Graph {
	t.Helper()
	apps, err := workload.BuildMany(tasks, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// streamProc adds process id streaming over arrays[k][lo, hi) for every
// k.
func streamProc(t *testing.T, g *taskgraph.Graph, id taskgraph.ProcID, lo, hi int64, arrays ...*prog.Array) {
	t.Helper()
	iter := prog.Seg("i", lo, hi)
	refs := make([]prog.Ref, len(arrays))
	for k, arr := range arrays {
		refs[k] = prog.StreamRef(arr, prog.Read, iter, 1, 0)
	}
	spec := prog.MustProcessSpec(id.String(), iter, 0, refs...)
	if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
		t.Fatal(err)
	}
}

// crossTaskGraph is two tasks that share one array: each process also
// touches an array of its own task, and the last process of task 0
// overlaps the process of task 1 on the shared array, so one component
// spans both tasks.
func crossTaskGraph(t *testing.T) *taskgraph.Graph {
	shared := prog.MustArray("S", 4, 1000)
	own0 := prog.MustArray("B", 8, 1000)
	own1 := prog.MustArray("C", 2, 1000)
	g := taskgraph.New()
	streamProc(t, g, taskgraph.ProcID{Task: 0, Idx: 0}, 0, 100, shared, own0)
	streamProc(t, g, taskgraph.ProcID{Task: 0, Idx: 1}, 50, 150, shared, own0)
	streamProc(t, g, taskgraph.ProcID{Task: 1, Idx: 0}, 120, 200, shared, own1)
	return g
}

// splitTaskGraph is one task whose processes split into two components
// with interleaved positions — positions 0 and 2 touch X, 1 and 3 touch
// Y — plus a process with an empty iteration space, which touches
// nothing and is a component of its own.
func splitTaskGraph(t *testing.T) *taskgraph.Graph {
	x := prog.MustArray("X", 4, 1000)
	y := prog.MustArray("Y", 12, 1000)
	g := taskgraph.New()
	streamProc(t, g, taskgraph.ProcID{Task: 0, Idx: 0}, 0, 300, x)
	streamProc(t, g, taskgraph.ProcID{Task: 0, Idx: 1}, 0, 200, y)
	streamProc(t, g, taskgraph.ProcID{Task: 0, Idx: 2}, 200, 400, x)
	streamProc(t, g, taskgraph.ProcID{Task: 0, Idx: 3}, 100, 150, y)
	streamProc(t, g, taskgraph.ProcID{Task: 0, Idx: 4}, 5, 5, x)
	return g
}

// TestMatrixParallelMatchesSequential: the component-blocked, parallel
// construction equals the pairwise oracle in every cell for every
// Table 1 application, the six-application mix, generated XL mixes, two
// tasks sharing one array and a task split into two components, at
// several worker counts.
func TestMatrixParallelMatchesSequential(t *testing.T) {
	var graphs []*taskgraph.Graph
	var labels []string
	for _, name := range workload.Names() {
		app, err := workload.Build(name, 0, workload.Params{Scale: 2})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, app.Graph)
		labels = append(labels, name)
	}
	allApps, err := workload.BuildAll(workload.Params{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	mix, _, err := workload.Combine(allApps...)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, mix, xlGraph(t, 8), xlGraph(t, 32), crossTaskGraph(t), splitTaskGraph(t))
	labels = append(labels, "mix6", "xl8", "xl32", "cross-task", "split-task")

	for gi, g := range graphs {
		seq, err := pairwiseMatrix(NewAnalyzer(), g)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", labels[gi], workers), func(t *testing.T) {
				par, err := ComputeMatrixParallel(g, workers)
				if err != nil {
					t.Fatal(err)
				}
				matchesOracle(t, g, seq, par)
			})
		}
	}
}

// TestMatrixComponents: the hand-built graphs land in the components
// their arrays imply — one across two tasks that share an array; two
// interleaved ones plus a lone empty process inside one task — numbered
// by smallest position, and cross-component pairs read 0.
func TestMatrixComponents(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *taskgraph.Graph
		comps []int32
	}{
		{"cross-task", crossTaskGraph(t), []int32{0, 0, 0}},
		{"split-task", splitTaskGraph(t), []int32{0, 1, 0, 1, 2}},
	} {
		m, err := ComputeMatrixParallel(c.g, 4)
		if err != nil {
			t.Fatal(err)
		}
		var got []int32
		for _, s := range m.at {
			got = append(got, s.comp)
		}
		if !slices.Equal(got, c.comps) {
			t.Errorf("%s: components %v, want %v", c.name, got, c.comps)
		}
	}
	cross, err := ComputeMatrixParallel(crossTaskGraph(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Task 0's second process and task 1's process overlap on S[120, 150).
	if got := cross.Shared(taskgraph.ProcID{Task: 0, Idx: 1}, taskgraph.ProcID{Task: 1, Idx: 0}); got != 30*4 {
		t.Errorf("cross-task sharing = %d, want %d", got, 30*4)
	}
	split, err := ComputeMatrixParallel(splitTaskGraph(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := split.SharedAt(0, 1); got != 0 {
		t.Errorf("cross-component sharing = %d, want 0", got)
	}
	if got := split.SharedAt(1, 3); got != 50*12 {
		t.Errorf("Y sharing = %d, want %d", got, 50*12)
	}
}

// TestMatrixCellsPerComponent is the memory guard: on the 256-core
// generated mix (|T| = 64) the matrix retains exactly Σk² cells over the
// sharing components (found independently by componentCells), at most 2%
// of the n² a dense matrix holds, and a build on a warm analyzer
// allocates less than an eighth of a dense n×n int64 block.
func TestMatrixCellsPerComponent(t *testing.T) {
	g := xlGraph(t, 64)
	an := NewAnalyzer()
	m, err := an.MatrixParallel(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Len()
	want := componentCells(t, an, g)
	if got := len(m.cells); got != want {
		t.Fatalf("%d processes: matrix retains %d cells, components hold Σk² = %d", n, got, want)
	}
	if 50*want > n*n {
		t.Fatalf("%d processes: Σk² = %d cells is %.1f%% of n², over 2%%", n, want, 100*float64(want)/float64(n*n))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := an.MatrixParallel(g, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	t.Logf("%d processes: %d cells (%.2f%% of n²); a warm build allocated %d bytes", n, want, 100*float64(want)/float64(n*n), after.TotalAlloc-before.TotalAlloc)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(n*n) {
		t.Fatalf("%d processes: a warm build allocated %d bytes, a dense block is %d", n, alloc, 8*n*n)
	}
}

// TestMatrixParallelDeterminism512: at the 512-core scenario scale (a
// 128-task generated mix), the blocked construction is deterministic
// across worker counts — Workers=1 and Workers=4 produce identical
// matrices, components included (and the pairwise oracle agrees).
func TestMatrixParallelDeterminism512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-core scenario mix in -short mode")
	}
	g := xlGraph(t, 128)
	w1, err := ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	w4, err := ComputeMatrixParallel(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w4) {
		t.Fatal("Workers=1 and Workers=4 matrices differ")
	}
	seq, err := pairwiseMatrix(NewAnalyzer(), g)
	if err != nil {
		t.Fatal(err)
	}
	matchesOracle(t, g, seq, w4)
}

// TestMatrixParallelSharedAnalyzer: MatrixParallel reuses (and fills) the
// analyzer's data-space memo, so the pairwise oracle on the same
// analyzer recomputes nothing and still agrees.
func TestMatrixParallelSharedAnalyzer(t *testing.T) {
	app, err := workload.Build("Usonic", 0, workload.Params{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer()
	par, err := an.MatrixParallel(app.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := pairwiseMatrix(an, app.Graph)
	if err != nil {
		t.Fatal(err)
	}
	matchesOracle(t, app.Graph, seq, par)
}

// TestMatrixIndexAccessors: Index/SharedAt agree with Shared for every
// pair, and Index rejects unknown processes.
func TestMatrixIndexAccessors(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m.IDs() {
		i, ok := m.Index(a)
		if !ok {
			t.Fatalf("Index(%v): not found", a)
		}
		for _, b := range m.IDs() {
			j, _ := m.Index(b)
			if m.SharedAt(i, j) != m.Shared(a, b) {
				t.Fatalf("SharedAt(%d,%d) = %d != Shared(%v,%v) = %d",
					i, j, m.SharedAt(i, j), a, b, m.Shared(a, b))
			}
		}
	}
	if _, ok := m.Index(taskgraph.ProcID{Task: 99, Idx: 0}); ok {
		t.Error("Index of unknown process reported ok")
	}
}

// fuzzGraph decodes a graph of 1–4 tasks of 1–5 processes each, whose
// references draw from a pool of 1–4 arrays common to every task, so
// components span tasks, split tasks or hold a lone process.
func fuzzGraph(t *testing.T, data []byte) *taskgraph.Graph {
	t.Helper()
	d := progtest.NewDecoder(data)
	pool := d.Arrays(int(d.In(1, 4)))
	g := taskgraph.New()
	for task, tasks := 0, int(d.In(1, 4)); task < tasks; task++ {
		for idx, procs := 0, int(d.In(1, 5)); idx < procs; idx++ {
			p := &taskgraph.Process{ID: taskgraph.ProcID{Task: task, Idx: idx}, Spec: d.Spec(pool)}
			if err := g.AddProcess(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// checkFuzzGraph checks the matrix of fuzzGraph(data) against the
// pairwise oracle at Workers 1 and 4.
func checkFuzzGraph(t *testing.T, data []byte) {
	t.Helper()
	g := fuzzGraph(t, data)
	want, werr := pairwiseMatrix(NewAnalyzer(), g)
	for _, workers := range []int{1, 4} {
		got, err := ComputeMatrixParallel(g, workers)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("workers=%d: error %v, oracle %v", workers, err, werr)
		}
		if err == nil {
			matchesOracle(t, g, want, got)
		}
	}
}

// TestMatrixRandomGraphs: 500 seeded random graphs over shared array
// pools match the pairwise oracle at Workers 1 and 4.
func TestMatrixRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	data := make([]byte, 256)
	for i := 0; i < 500; i++ {
		rng.Read(data)
		checkFuzzGraph(t, data)
	}
}

// FuzzSharingMatrix decodes a graph with fuzzGraph and checks the
// component matrix against the pairwise oracle at Workers 1 and 4.
func FuzzSharingMatrix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 2, 9, 1, 2, 7, 4, 3, 5, 8, 0, 6, 11, 2, 1, 0, 3})
	f.Fuzz(checkFuzzGraph)
}
