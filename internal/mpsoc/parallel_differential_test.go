package mpsoc

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/sched"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// parallelWorkerCounts are the pool sizes every cell is checked under:
// 1 exercises the asynchronous dispatch/join machinery with no real
// concurrency, 4 is the CI multicore shape, NumCPU is whatever this
// host has (which may be 1 — the count still differs in queue depth).
func parallelWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestParallelEngineMatchesSequential: for every Table 1 application
// under both address maps, every machine variant (including a
// timeline-recording one: segment order must match, not just totals),
// and every dispatcher — run-to-completion, mid-iteration preemptive,
// and the full ARR affinity machinery — the pooled executor produces
// results bit-identical to the inline one at every worker count.
func TestParallelEngineMatchesSequential(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := rleDiffConfigs()
	tl := DefaultConfig()
	tl.RecordTimeline = true
	cfgs["Timeline"] = tl
	for cfgName, cfg := range cfgs {
		for _, app := range apps {
			for amName, am := range rleDiffMaps(t, app, cfg.Cache) {
				for dName, mkDisp := range rleDiffDispatchers(t, app.Graph, cfg.Cores) {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", cfgName, app.Name, amName, dName), func(t *testing.T) {
						r, err := NewRunner(app.Graph, am, cfg)
						if err != nil {
							t.Fatal(err)
						}
						seq, err := r.Run(mkDisp())
						if err != nil {
							t.Fatalf("inline executor: %v", err)
						}
						for _, w := range parallelWorkerCounts() {
							par, err := r.RunParallel(mkDisp(), w)
							if err != nil {
								t.Fatalf("pooled executor (workers=%d): %v", w, err)
							}
							if !reflect.DeepEqual(seq, par) {
								t.Errorf("workers=%d: results diverge:\nseq: %+v\npar: %+v", w, seq, par)
							}
						}
					})
				}
			}
		}
	}
}

// TestParallelEngineFlatStreams: the flat oracle on pool workers is
// compared against the flat oracle inline — the RLE differential suite
// already ties flat to RLE, so this closes the square.
func TestParallelEngineFlatStreams(t *testing.T) {
	app, err := workload.Build("Radar", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newFlatRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := r.Run(sched.MustRoundRobin(193))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parallelWorkerCounts() {
		par, err := r.RunParallel(sched.MustRoundRobin(193), w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: results diverge:\nseq: %+v\npar: %+v", w, seq, par)
		}
	}
}

// TestParallelEngineRunnerReuse: alternating inline and pooled runs on
// one Runner (the repeated-cell path through the runner pool) stays
// bit-identical — the reset machinery is shared and the pooled executor
// must leave no worker writes behind after it returns.
func TestParallelEngineRunnerReuse(t *testing.T) {
	app, err := workload.Build("Track", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 4; i++ {
		var res *Result
		if i%2 == 0 {
			res, err = r.RunParallel(sched.MustRoundRobin(193), 2)
		} else {
			res, err = r.Run(sched.MustRoundRobin(193))
		}
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Errorf("run %d diverges from run 0:\nfirst: %+v\nthis:  %+v", i, first, res)
		}
	}
}

// TestParallelEngineWorkerClamp: worker counts beyond the core count are
// clamped (a segment per busy core is the maximum possible concurrency)
// and workers <= 0 is the inline executor.
func TestParallelEngineWorkerClamp(t *testing.T) {
	app, err := workload.Build("Radar", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := r.RunParallel(sched.NewRandom(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	over, err := r.RunParallel(sched.NewRandom(7), 10*cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, over) {
		t.Errorf("oversized pool diverges:\nseq:  %+v\nover: %+v", seq, over)
	}
}

// stuckDispatcher violates the Dispatcher contract by offering the same
// process, with a short quantum, to every core: the engine must refuse
// the second pick (the process is in flight) instead of slicing one
// cursor across cores — or, pooled, racing two workers on it.
type stuckDispatcher struct{ id taskgraph.ProcID }

func (s *stuckDispatcher) Name() string                  { return "stuck" }
func (s *stuckDispatcher) Ready(id taskgraph.ProcID)     { s.id = id }
func (s *stuckDispatcher) Preempted(id taskgraph.ProcID) {}
func (s *stuckDispatcher) Pick(core int, now int64) (taskgraph.ProcID, int64, bool) {
	return s.id, 100, true
}

func TestParallelEngineRejectsInFlightPick(t *testing.T) {
	app, err := workload.Build("Radar", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append([]int{0}, parallelWorkerCounts()...) {
		_, err = r.RunParallel(&stuckDispatcher{}, w)
		if err == nil || !strings.Contains(err.Error(), "in-flight") {
			t.Errorf("workers=%d: want in-flight pick error, got %v", w, err)
		}
	}
}
