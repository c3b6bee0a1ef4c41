package sched

import (
	"testing"

	"locsched/internal/layout"
	"locsched/internal/mpsoc"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// chainGraph builds two chains of different lengths plus a short job.

// simulate runs the EPG under the dispatcher on a fresh mpsoc.Runner.
func simulate(g *taskgraph.Graph, d mpsoc.Dispatcher, am layout.AddressMap, cfg mpsoc.Config) (*mpsoc.Result, error) {
	r, err := mpsoc.NewRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(d)
}

func chainGraph(t *testing.T) (*taskgraph.Graph, layout.AddressMap) {
	t.Helper()
	arr := prog.MustArray("A", 4, 100000)
	g := taskgraph.New()
	add := func(idx int, iters int64) taskgraph.ProcID {
		iter := prog.Seg("i", 0, iters)
		spec := prog.MustProcessSpec("p", iter, 1, prog.StreamRef(arr, prog.Read, iter, 1, int64(idx)*2000))
		id := pid(0, idx)
		if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	// Long chain 0 -> 1 -> 2; independent short job 3; medium job 4.
	a := add(0, 500)
	b := add(1, 500)
	c := add(2, 500)
	add(3, 50)
	add(4, 200)
	if err := g.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDep(b, c); err != nil {
		t.Fatal(err)
	}
	return g, layout.MustPack(32, arr)
}

func TestSJFPicksShortestFirst(t *testing.T) {
	g, _ := chainGraph(t)
	s, err := NewSJF(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SJF" {
		t.Error("name should be SJF")
	}
	s.Ready(pid(0, 0)) // 500 iters
	s.Ready(pid(0, 3)) // 50 iters
	s.Ready(pid(0, 4)) // 200 iters
	id, q, ok := s.Pick(0, 0)
	if !ok || id != pid(0, 3) || q != 0 {
		t.Errorf("first pick = %v,%d,%v, want P0.3 (shortest)", id, q, ok)
	}
	id, _, _ = s.Pick(0, 0)
	if id != pid(0, 4) {
		t.Errorf("second pick = %v, want P0.4", id)
	}
	id, _, _ = s.Pick(0, 0)
	if id != pid(0, 0) {
		t.Errorf("third pick = %v, want P0.0", id)
	}
	if _, _, ok := s.Pick(0, 0); ok {
		t.Error("empty pool should report !ok")
	}
}

func TestCriticalPathPicksDeepestFirst(t *testing.T) {
	g, _ := chainGraph(t)
	c, err := NewCriticalPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "CPL" {
		t.Error("name should be CPL")
	}
	// Ranks: P0.0 = 2 (heads chain of 3), P0.3 = 0, P0.4 = 0.
	c.Ready(pid(0, 3))
	c.Ready(pid(0, 0))
	c.Ready(pid(0, 4))
	id, _, ok := c.Pick(0, 0)
	if !ok || id != pid(0, 0) {
		t.Errorf("first pick = %v, want chain head P0.0", id)
	}
	// Remaining two tie at rank 0: smallest ID wins.
	id, _, _ = c.Pick(0, 0)
	if id != pid(0, 3) {
		t.Errorf("second pick = %v, want P0.3", id)
	}
}

func TestBaselinesCompleteThroughEngine(t *testing.T) {
	cfg := mpsoc.DefaultConfig()
	cfg.Cores = 2
	for _, mk := range []func(*taskgraph.Graph) (mpsoc.Dispatcher, error){
		func(g *taskgraph.Graph) (mpsoc.Dispatcher, error) { return NewSJF(g) },
		func(g *taskgraph.Graph) (mpsoc.Dispatcher, error) { return NewCriticalPath(g) },
	} {
		g, am := chainGraph(t)
		d, err := mk(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate(g, d, am, cfg)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if len(res.Completion) != g.Len() {
			t.Errorf("%s completed %d of %d", d.Name(), len(res.Completion), g.Len())
		}
	}
}

func TestPoolStaysSorted(t *testing.T) {
	s := &SJF{cost: map[taskgraph.ProcID]int64{}}
	for _, i := range []int{5, 1, 3, 2, 4} {
		s.Ready(pid(0, i))
	}
	if !sortPool(s.pool) {
		t.Errorf("pool not sorted: %v", s.pool)
	}
}
