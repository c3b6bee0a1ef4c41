package mpsoc

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"locsched/internal/layout"
	"locsched/internal/sched"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// parallelWorkerCounts are the worker counts every cell is checked
// under: 2 is the loop and one helper, 4 is the CI multicore shape, and
// NumCPU is whatever this host has (1 would be the inline executor, so
// it is left out).
func parallelWorkerCounts() []int {
	counts := []int{2, 4}
	if n := runtime.NumCPU(); n > 2 && n != 4 {
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
// and workers <= 1 is the inline executor.
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

// goroutineProbe wraps a dispatcher and records the most goroutines the
// process had at any Pick — the loop's view while segments are in flight.
type goroutineProbe struct {
	Dispatcher
	max int
}

func (g *goroutineProbe) Pick(core int, now int64) (taskgraph.ProcID, int64, bool) {
	g.max = max(g.max, runtime.NumGoroutine())
	return g.Dispatcher.Pick(core, now)
}

// TestParallelEngineHelperCount: RunParallel starts exactly workers−1
// helper goroutines, so one worker (what a single CPU resolves to) is
// the inline executor with no goroutine at all.
func TestParallelEngineHelperCount(t *testing.T) {
	r := packedRunner(t, "Radar")
	idle := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 2, 4} {
		p := &goroutineProbe{Dispatcher: sched.MustRoundRobin(193)}
		if _, err := r.RunParallel(p, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := idle + max(workers-1, 0); p.max != want {
			t.Errorf("workers=%d: %d goroutines during the run, want %d", workers, p.max, want)
		}
		awaitGoroutines(t, idle)
	}
}

// awaitGoroutines waits for the process to be back to n goroutines:
// stop waits for its helpers, so only a helper's own exit can still be
// in progress when RunParallel returns.
func awaitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > n {
		t.Fatalf("%d goroutines after the runs, %d before", got, n)
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
	r := packedRunner(t, "Radar")
	for _, w := range append([]int{0, 1}, parallelWorkerCounts()...) {
		_, err := r.RunParallel(&stuckDispatcher{}, w)
		if err == nil || !strings.Contains(err.Error(), "in-flight") {
			t.Errorf("workers=%d: want in-flight pick error, got %v", w, err)
		}
	}
}

// packedRunner builds a Runner for a Table 1 application at scale 1 on
// the default machine, under the packed base layout.
func packedRunner(t *testing.T, name string) *Runner {
	t.Helper()
	app, err := workload.Build(name, 0, workload.Params{Scale: 1})
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
	return r
}

// runPooled runs d through the pooled executor with the given number of
// helper goroutines, 0 included: the loop then simulates every segment
// itself, at its joins, which exercises the ring and the deferred joins
// with no concurrency at all.
func runPooled(r *Runner, d Dispatcher, helpers int) (*Result, error) {
	s := r.newSimulation(d)
	e := newPoolExec(s, helpers)
	defer e.stop()
	return s.run(e)
}

// TestPoolExecStress: with a quantum of a dozen-odd cycles every core's
// slot is resubmitted thousands of times per run, so helpers keep
// meeting stale ring entries of slots the loop is rewriting. At 0–3
// helpers, under RRS and ARR, every run must match the inline executor,
// finish (a lost hand-over deadlocks the loop, which the watchdog turns
// into a failure), and leave no helper goroutine behind.
func TestPoolExecStress(t *testing.T) {
	names := []string{"Radar", "Track", "Shape"}
	if testing.Short() {
		names = names[:1]
	}
	disps := map[string]func() Dispatcher{
		"RRS-13": func() Dispatcher { return sched.MustRoundRobin(13) },
		"ARR-17": func() Dispatcher {
			return sched.MustAffinityRR(sched.AffinityConfig{Quantum: 17, Window: 4, QBatch: 2, Decay: 20000})
		},
	}
	before := runtime.NumGoroutine()
	for _, name := range names {
		r := packedRunner(t, name)
		for dName, mk := range disps {
			want, err := r.Run(mk())
			if err != nil {
				t.Fatalf("%s/%s inline: %v", name, dName, err)
			}
			for helpers := 0; helpers <= 3; helpers++ {
				type outcome struct {
					res *Result
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := runPooled(r, mk(), helpers)
					done <- outcome{res, err}
				}()
				select {
				case o := <-done:
					if o.err != nil {
						t.Fatalf("%s/%s, %d helpers: %v", name, dName, helpers, o.err)
					}
					if !reflect.DeepEqual(want, o.res) {
						t.Fatalf("%s/%s, %d helpers: diverges from the inline executor:\ninline: %+v\npooled: %+v", name, dName, helpers, want, o.res)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s/%s, %d helpers: run did not finish", name, dName, helpers)
				}
			}
		}
	}
	awaitGoroutines(t, before)
}
