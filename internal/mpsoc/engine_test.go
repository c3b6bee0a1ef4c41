package mpsoc

import (
	"strings"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// fifoDispatcher is a minimal run-to-completion global-FIFO policy used to
// exercise the engine (real policies live in internal/sched).
type fifoDispatcher struct {
	queue   []taskgraph.ProcID
	quantum int64
}

func (f *fifoDispatcher) Name() string { return "test-fifo" }
func (f *fifoDispatcher) Ready(id taskgraph.ProcID) {
	f.queue = append(f.queue, id)
}
func (f *fifoDispatcher) Pick(core int, now int64) (taskgraph.ProcID, int64, bool) {
	if len(f.queue) == 0 {
		return taskgraph.ProcID{}, 0, false
	}
	id := f.queue[0]
	f.queue = f.queue[1:]
	return id, f.quantum, true
}
func (f *fifoDispatcher) Preempted(id taskgraph.ProcID) {
	f.queue = append(f.queue, id)
}

// pinnedDispatcher runs an explicit per-core order, waiting when the next
// pinned process is not yet ready.
type pinnedDispatcher struct {
	perCore [][]taskgraph.ProcID
	next    []int
	ready   map[taskgraph.ProcID]bool
}

func newPinned(perCore [][]taskgraph.ProcID) *pinnedDispatcher {
	return &pinnedDispatcher{
		perCore: perCore,
		next:    make([]int, len(perCore)),
		ready:   make(map[taskgraph.ProcID]bool),
	}
}

func (p *pinnedDispatcher) Name() string                  { return "test-pinned" }
func (p *pinnedDispatcher) Ready(id taskgraph.ProcID)     { p.ready[id] = true }
func (p *pinnedDispatcher) Preempted(id taskgraph.ProcID) {}
func (p *pinnedDispatcher) Pick(core int, now int64) (taskgraph.ProcID, int64, bool) {
	if core >= len(p.perCore) || p.next[core] >= len(p.perCore[core]) {
		return taskgraph.ProcID{}, 0, false
	}
	id := p.perCore[core][p.next[core]]
	if !p.ready[id] {
		return taskgraph.ProcID{}, 0, false
	}
	p.next[core]++
	return id, 0, true
}

// neverDispatcher never picks anything: used for deadlock detection.
type neverDispatcher struct{}

func (neverDispatcher) Name() string               { return "never" }
func (neverDispatcher) Ready(taskgraph.ProcID)     {}
func (neverDispatcher) Preempted(taskgraph.ProcID) {}
func (neverDispatcher) Pick(int, int64) (taskgraph.ProcID, int64, bool) {
	return taskgraph.ProcID{}, 0, false
}

// runOnce simulates the EPG under the dispatcher on a fresh Runner.
func runOnce(g *taskgraph.Graph, d Dispatcher, am layout.AddressMap, cfg Config) (*Result, error) {
	r, err := NewRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(d)
}

func testConfig(cores int) Config {
	cfg := DefaultConfig()
	cfg.Cores = cores
	return cfg
}

// singleProcGraph builds one process doing n iterations of one read with
// the given stride (in elements of a 4-byte array).
func singleProcGraph(t *testing.T, n, stride, compute int64) (*taskgraph.Graph, layout.AddressMap) {
	t.Helper()
	arr := prog.MustArray("A", 4, 100000)
	iter := prog.Seg("i", 0, n)
	spec := prog.MustProcessSpec("p", iter, compute, prog.StreamRef(arr, prog.Read, iter, stride, 0))
	g := taskgraph.New()
	if err := g.AddProcess(&taskgraph.Process{ID: taskgraph.ProcID{Task: 0, Idx: 0}, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	return g, layout.MustPack(32, arr)
}

func TestExactCyclesAllMisses(t *testing.T) {
	// Stride 8 elements = 32 bytes = one block per access: every access
	// misses. cycles = n*(compute + hit + misspenalty).
	g, am := singleProcGraph(t, 10, 8, 3)
	res, err := runOnce(g, &fifoDispatcher{}, am, testConfig(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(10 * (3 + 2 + 75))
	if res.Cycles != want {
		t.Errorf("Cycles = %d, want %d", res.Cycles, want)
	}
	if res.PerCore[0].BusyCycles != want {
		t.Errorf("BusyCycles = %d, want %d", res.PerCore[0].BusyCycles, want)
	}
	if res.Total.Misses() != 10 || res.Total.Hits != 0 {
		t.Errorf("cache stats = %+v", res.Total)
	}
	if res.Seconds <= 0 {
		t.Error("Seconds should be positive")
	}
}

func TestExactCyclesMostlyHits(t *testing.T) {
	// Stride 0: all accesses hit the same block. 1 miss + 9 hits.
	g, am := singleProcGraph(t, 10, 0, 3)
	res, err := runOnce(g, &fifoDispatcher{}, am, testConfig(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(10*3 + (2 + 75) + 9*2)
	if res.Cycles != want {
		t.Errorf("Cycles = %d, want %d", res.Cycles, want)
	}
	if res.Total.Hits != 9 || res.Total.Misses() != 1 {
		t.Errorf("cache stats = %+v", res.Total)
	}
}

func TestDependenceGatesExecution(t *testing.T) {
	// Chain A -> B: B must not complete before A.
	arr := prog.MustArray("A", 4, 100000)
	g := taskgraph.New()
	var ids []taskgraph.ProcID
	for i := 0; i < 2; i++ {
		iter := prog.Seg("i", 0, 100)
		spec := prog.MustProcessSpec("p", iter, 1, prog.StreamRef(arr, prog.Read, iter, 8, int64(i)*1000))
		id := taskgraph.ProcID{Task: 0, Idx: i}
		if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := g.AddDep(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(g, &fifoDispatcher{}, layout.MustPack(32, arr), testConfig(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completion[ids[1]] <= res.Completion[ids[0]] {
		t.Errorf("dependent process completed at %d, predecessor at %d",
			res.Completion[ids[1]], res.Completion[ids[0]])
	}
	// With a 4-core machine, only one core may ever have run: chain is serial.
	active := 0
	for _, st := range res.PerCore {
		if st.Segments > 0 {
			active++
		}
	}
	if active == 0 {
		t.Error("no core ran anything")
	}
}

func TestWarmCacheReuseSameCore(t *testing.T) {
	// Two dependent processes touching the same 2KB window. Scheduled on
	// the same core, the second one finds the data warm; on different
	// cores it reloads everything. This is the paper's core effect.
	arr := prog.MustArray("A", 4, 512) // 2KB, fits in an 8KB cache
	g := func() *taskgraph.Graph {
		g := taskgraph.New()
		for i := 0; i < 2; i++ {
			iter := prog.Seg("i", 0, 512)
			spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(arr, prog.Read, iter, 1, 0))
			if err := g.AddProcess(&taskgraph.Process{ID: taskgraph.ProcID{Task: 0, Idx: i}, Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AddDep(taskgraph.ProcID{Task: 0, Idx: 0}, taskgraph.ProcID{Task: 0, Idx: 1}); err != nil {
			t.Fatal(err)
		}
		return g
	}

	am := layout.MustPack(32, arr)
	p0 := taskgraph.ProcID{Task: 0, Idx: 0}
	p1 := taskgraph.ProcID{Task: 0, Idx: 1}

	sameCore, err := runOnce(g(), newPinned([][]taskgraph.ProcID{{p0, p1}, {}}), am, testConfig(2))
	if err != nil {
		t.Fatalf("same-core run: %v", err)
	}
	diffCore, err := runOnce(g(), newPinned([][]taskgraph.ProcID{{p0}, {p1}}), am, testConfig(2))
	if err != nil {
		t.Fatalf("diff-core run: %v", err)
	}
	if sameCore.Cycles >= diffCore.Cycles {
		t.Errorf("warm-cache run (%d cycles) should beat cold run (%d cycles)",
			sameCore.Cycles, diffCore.Cycles)
	}
	// The second process on the same core should be nearly all hits.
	if sameCore.Total.Hits <= diffCore.Total.Hits {
		t.Errorf("same-core hits %d should exceed diff-core hits %d",
			sameCore.Total.Hits, diffCore.Total.Hits)
	}
}

func TestPreemptionAccounting(t *testing.T) {
	g, am := singleProcGraph(t, 200, 8, 1)
	// Quantum of 500 cycles: the ~15k-cycle process is preempted often.
	res, err := runOnce(g, &fifoDispatcher{quantum: 500}, am, testConfig(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Preemptions == 0 {
		t.Error("expected preemptions with a small quantum")
	}
	// On a single core with a single process, preemption must not change
	// total busy cycles (same cache, same access order).
	noPreempt, err := runOnce(g, &fifoDispatcher{}, am, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Graph cursors are rebuilt per Run, so compare totals.
	if res.PerCore[0].BusyCycles != noPreempt.PerCore[0].BusyCycles {
		t.Errorf("busy cycles with preemption %d != without %d",
			res.PerCore[0].BusyCycles, noPreempt.PerCore[0].BusyCycles)
	}
	if res.PerCore[0].Segments <= noPreempt.PerCore[0].Segments {
		t.Error("preempted run should have more segments")
	}
}

func TestDeadlockDetection(t *testing.T) {
	g, am := singleProcGraph(t, 10, 1, 0)
	if _, err := runOnce(g, neverDispatcher{}, am, testConfig(1)); err == nil {
		t.Error("policy that never dispatches should be reported as deadlock")
	} else if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error %q should mention deadlock", err)
	}
}

func TestInvalidPicksRejected(t *testing.T) {
	g, am := singleProcGraph(t, 10, 1, 0)
	bogus := &fifoDispatcher{}
	bogus.queue = []taskgraph.ProcID{{Task: 7, Idx: 7}}
	if _, err := runOnce(g, bogus, am, testConfig(1)); err == nil {
		t.Error("picking an unknown process should fail")
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	_, am := singleProcGraph(t, 1, 1, 0)
	if _, err := runOnce(taskgraph.New(), &fifoDispatcher{}, am, testConfig(1)); err == nil {
		t.Error("empty graph should fail")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	g, am := singleProcGraph(t, 10, 1, 0)
	cfg := testConfig(0)
	if _, err := runOnce(g, &fifoDispatcher{}, am, cfg); err == nil {
		t.Error("zero cores should fail")
	}
}

func TestCyclicGraphRejected(t *testing.T) {
	arr := prog.MustArray("A", 4, 1000)
	g := taskgraph.New()
	var ids []taskgraph.ProcID
	for i := 0; i < 2; i++ {
		iter := prog.Seg("i", 0, 10)
		spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(arr, prog.Read, iter, 1, 0))
		id := taskgraph.ProcID{Task: 0, Idx: i}
		if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := g.AddDep(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDep(ids[1], ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(g, &fifoDispatcher{}, layout.MustPack(32, arr), testConfig(1)); err == nil {
		t.Error("cyclic graph should fail")
	}
}

func TestBusContentionSlowsMisses(t *testing.T) {
	// Two independent streaming processes on two cores. With BusFactor
	// the concurrent run pays more per miss.
	build := func() (*taskgraph.Graph, layout.AddressMap) {
		arr := prog.MustArray("A", 4, 100000)
		g := taskgraph.New()
		for i := 0; i < 2; i++ {
			iter := prog.Seg("i", 0, 500)
			spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(arr, prog.Read, iter, 8, int64(i)*20000))
			if err := g.AddProcess(&taskgraph.Process{ID: taskgraph.ProcID{Task: 0, Idx: i}, Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		return g, layout.MustPack(32, arr)
	}
	g1, am1 := build()
	cfg := testConfig(2)
	base, err := runOnce(g1, &fifoDispatcher{}, am1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, am2 := build()
	cfg.BusFactor = 0.5
	contended, err := runOnce(g2, &fifoDispatcher{}, am2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if contended.Cycles <= base.Cycles {
		t.Errorf("contended run (%d) should be slower than base (%d)",
			contended.Cycles, base.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (*Result, error) {
		g, am := singleProcGraph(t, 300, 4, 2)
		return runOnce(g, &fifoDispatcher{quantum: 333}, am, testConfig(3))
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Preemptions != b.Preemptions {
		t.Errorf("runs differ: %d/%d vs %d/%d cycles/preemptions",
			a.Cycles, a.Preemptions, b.Cycles, b.Preemptions)
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 8 {
		t.Errorf("Cores = %d, want 8", cfg.Cores)
	}
	if cfg.Cache.Size != 8*1024 || cfg.Cache.Assoc != 2 {
		t.Errorf("Cache = %+v, want 8KB 2-way", cfg.Cache)
	}
	if cfg.HitLatency != 2 {
		t.Errorf("HitLatency = %d, want 2", cfg.HitLatency)
	}
	if cfg.MissPenalty != 75 {
		t.Errorf("MissPenalty = %d, want 75", cfg.MissPenalty)
	}
	if cfg.ClockMHz != 200 {
		t.Errorf("ClockMHz = %d, want 200", cfg.ClockMHz)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// 200 MHz: 2e8 cycles per second.
	if s := cfg.Seconds(2e8); s < 0.999 || s > 1.001 {
		t.Errorf("Seconds(2e8) = %f, want 1.0", s)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.HitLatency = 0 },
		func(c *Config) { c.MissPenalty = -1 },
		func(c *Config) { c.ClockMHz = 0 },
		func(c *Config) { c.BusFactor = -1 },
		func(c *Config) { c.Cache = cache.Geometry{} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}
