// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Each benchmark simulates one experiment cell and reports the measured
// makespan (ms/run at the simulated 200 MHz clock) and miss rate
// alongside the usual Go timings, so `go test -bench . -benchmem`
// reproduces the paper's series:
//
//	BenchmarkFigure6/<app>/<policy>   — paper Figure 6 cells
//	BenchmarkFigure7/T=<n>/<policy>   — paper Figure 7 cells
//	BenchmarkTable1Build              — constructing the Table 1 suite
//	BenchmarkAblation*                — design-choice ablations
package locsched_test

import (
	"fmt"
	"testing"

	"locsched"
	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/layout"
	"locsched/internal/mpsoc"
	"locsched/internal/presburger"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/workload"
)

func benchConfig() locsched.Config { return locsched.DefaultConfig() }

func reportRun(b *testing.B, res *locsched.RunResult) {
	b.Helper()
	b.ReportMetric(res.Seconds*1e3, "simms/run")
	b.ReportMetric(res.MissRate()*100, "miss%")
	b.ReportMetric(float64(res.Conflicts), "conflicts")
}

// BenchmarkFigure6 regenerates the paper's Figure 6: each Table 1
// application in isolation under each of the four policies.
func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig()
	for _, name := range locsched.AppNames() {
		for _, pol := range locsched.Policies() {
			b.Run(fmt.Sprintf("%s/%s", name, pol), func(b *testing.B) {
				app, err := locsched.BuildApp(name, 0, cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				var last *locsched.RunResult
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					last, err = locsched.Run(app, pol, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportRun(b, last)
			})
		}
	}
}

// BenchmarkFigure7 regenerates the paper's Figure 7: cumulative
// concurrent mixes |T| = 1..6 under each policy.
func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig()
	for n := 1; n <= 6; n++ {
		for _, pol := range locsched.Policies() {
			b.Run(fmt.Sprintf("T=%d/%s", n, pol), func(b *testing.B) {
				apps, err := locsched.BuildApps(cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				var last *locsched.RunResult
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					last, err = locsched.RunConcurrent(apps[:n], pol, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportRun(b, last)
			})
		}
	}
}

// BenchmarkFigure6Table regenerates the whole of Figure 6 (24 cells)
// through the parallel fan-out harness — the end-to-end cost of the
// paper's first evaluation figure.
func BenchmarkFigure6Table(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := locsched.Figure6(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Table regenerates the whole of Figure 7 (24 cells)
// through the parallel fan-out harness.
func BenchmarkFigure7Table(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := locsched.Figure7(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7XL measures the cells of the large-scale scenario
// ladder — generated multi-program mixes at 32, 64, and 128 cores. Apps
// are built and a warm-up run performed outside the timer: what is
// measured is the steady-state simulation cost of a cell (scheduling
// analyses and compiled streams are memoized across runs).
func BenchmarkFigure7XL(b *testing.B) {
	for _, pt := range locsched.DefaultXLPoints() {
		// ARR rides along with the paper's four: its cells quantify how
		// much of the RRS preemption penalty (the weakest coalescing
		// cells) affinity-aware dispatch recovers.
		for _, pol := range append(locsched.Policies(), locsched.ARR) {
			b.Run(fmt.Sprintf("%dc-T%d/%s", pt.Cores, pt.Tasks, pol), func(b *testing.B) {
				cfg := benchConfig()
				cfg.Machine.Cores = pt.Cores
				apps, err := locsched.BuildMixApps(pt.Tasks, cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				var last *locsched.RunResult
				if last, err = locsched.RunConcurrent(apps, pol, cfg); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					last, err = locsched.RunConcurrent(apps, pol, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportRun(b, last)
			})
		}
	}
}

// BenchmarkXLLadderByPolicy measures one cell of the extended 128–1024
// core ladder per policy SKU under both segment executors: seq is the
// inline executor, par4 the pooled epoch-barrier executor at 4 workers
// (clamped to GOMAXPROCS, so on a 2-CPU host it is the loop and one
// helper, and on a single-CPU host it is the inline executor again).
// The two report identical simms/run and miss% by construction; the
// wall-clock ratio per RS/RRS/LS/LSM/ARR cell is the per-policy speedup
// table of PERFORMANCE.md. CI's bench smoke runs the 128c rung (the
// 512/1024c rungs match its XL skip filter); the multicore job times the
// 512c point end to end.
func BenchmarkXLLadderByPolicy(b *testing.B) {
	points := []locsched.XLPoint{
		{Cores: 128, Tasks: 32}, {Cores: 512, Tasks: 128}, {Cores: 1024, Tasks: 256},
	}
	for _, pt := range points {
		for _, pol := range append(locsched.Policies(), locsched.ARR) {
			for _, engine := range []string{"seq", "par4"} {
				b.Run(fmt.Sprintf("%dc-T%d/%s/%s", pt.Cores, pt.Tasks, pol, engine), func(b *testing.B) {
					cfg := benchConfig()
					cfg.Machine.Cores = pt.Cores
					cfg.Workers = 1
					cfg.SimWorkers = 1
					if engine == "par4" {
						cfg.SimWorkers = 4
					}
					apps, err := locsched.BuildMixApps(pt.Tasks, cfg.Workload)
					if err != nil {
						b.Fatal(err)
					}
					var last *locsched.RunResult
					if last, err = locsched.RunConcurrent(apps, pol, cfg); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						last, err = locsched.RunConcurrent(apps, pol, cfg)
						if err != nil {
							b.Fatal(err)
						}
					}
					reportRun(b, last)
				})
			}
		}
	}
}

// BenchmarkFigure7XLTable regenerates the whole default XL ladder end to
// end — workload generation, analyses, and simulation — through the
// parallel fan-out harness (the `locsched fig7xl` wall-clock).
func BenchmarkFigure7XLTable(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := locsched.Figure7XL(cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepXLGrid regenerates a dense 2×2×2 corner of the XL
// parameter grid (size × assoc × miss penalty) end to end.
func BenchmarkSweepXLGrid(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		_, err := locsched.SweepXL(cfg,
			[]int64{4 << 10, 16 << 10}, []int{1, 4}, []int64{25, 150},
			[]locsched.Policy{locsched.RS, locsched.LS, locsched.LSM})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Build measures constructing the whole application suite
// (Table 1): graphs, arrays, and dependences.
func BenchmarkTable1Build(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		apps, err := locsched.BuildApps(cfg.Workload)
		if err != nil {
			b.Fatal(err)
		}
		if len(apps) != 6 {
			b.Fatal("wrong suite size")
		}
	}
}

// BenchmarkSharingMatrix measures the Section 2 analysis (data spaces +
// pairwise intersections) on the largest application.
func BenchmarkSharingMatrix(b *testing.B) {
	app, err := locsched.BuildApp("Usonic", 0, benchConfig().Workload)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locsched.ComputeSharing(app.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalitySchedule measures the Figure 3 greedy on the full
// six-application EPG.
func BenchmarkLocalitySchedule(b *testing.B) {
	cfg := benchConfig()
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		b.Fatal(err)
	}
	epg, _, err := workload.Combine(apps...)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sharing.ComputeMatrixParallel(epg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.LocalitySchedule(epg, m, cfg.Machine.Cores); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataMapping measures the Figures 4–5 pipeline (conflict matrix,
// verified greedy selection, re-layout) on the full mix.
func BenchmarkDataMapping(b *testing.B) {
	cfg := benchConfig()
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		b.Fatal(err)
	}
	epg, arrays, err := workload.Combine(apps...)
	if err != nil {
		b.Fatal(err)
	}
	base, err := layout.Pack(cfg.Align, arrays...)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sharing.ComputeMatrixParallel(epg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.NewLSM(epg, m, nil, cfg.Machine.Cores, base, cfg.Machine.Cache, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStaticMode compares the three runtime modes of the
// static LS dispatcher (strict in-order, skip-blocked, steal-when-idle)
// on the |T|=4 mix: the work-conservation ablation of DESIGN.md.
func BenchmarkAblationStaticMode(b *testing.B) {
	cfg := benchConfig()
	for _, mode := range []sched.StaticMode{sched.StrictOrder, sched.SkipBlocked, sched.StealWhenIdle} {
		b.Run(mode.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				apps, err := workload.BuildAll(cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				epg, arrays, err := workload.Combine(apps[:4]...)
				if err != nil {
					b.Fatal(err)
				}
				m, err := sharing.ComputeMatrixParallel(epg, 1)
				if err != nil {
					b.Fatal(err)
				}
				asg, err := sched.LocalitySchedule(epg, m, cfg.Machine.Cores)
				if err != nil {
					b.Fatal(err)
				}
				disp := sched.NewStaticMode("LS", asg, mode)
				base, err := layout.Pack(cfg.Align, arrays...)
				if err != nil {
					b.Fatal(err)
				}
				runner, err := mpsoc.NewRunner(epg, base, cfg.Machine)
				if err != nil {
					b.Fatal(err)
				}
				res, err := runner.Run(disp)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkAblationReplacement compares cache replacement policies under
// the LS schedule on the |T|=2 mix.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.RandomRepl} {
		b.Run(repl.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Machine.Replacement = repl
			var last *locsched.RunResult
			for i := 0; i < b.N; i++ {
				apps, err := locsched.BuildApps(cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				last, err = locsched.RunConcurrent(apps[:2], locsched.LS, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkAblationBusFactor compares off-chip bus contention levels (the
// shared-bus extension) under RS on the full mix.
func BenchmarkAblationBusFactor(b *testing.B) {
	for _, factor := range []float64{0, 0.25, 0.5} {
		b.Run(fmt.Sprintf("bus=%.2f", factor), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Machine.BusFactor = factor
			var last *locsched.RunResult
			for i := 0; i < b.N; i++ {
				apps, err := locsched.BuildApps(cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				last, err = locsched.RunConcurrent(apps, locsched.RS, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkAblationQuantum compares RRS time slices on the full mix (the
// preemption-granularity sensitivity of Section 4's RRS baseline).
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []int64{512, 2048, 8192, 32768} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Quantum = q
			var last *locsched.RunResult
			for i := 0; i < b.N; i++ {
				apps, err := locsched.BuildApps(cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				last, err = locsched.RunConcurrent(apps, locsched.RRS, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkCacheAccess measures the raw per-access cost of the L1 model.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.MustNew(cache.Geometry{Size: 8 << 10, BlockSize: 32, Assoc: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i) * 32 % (64 << 10))
	}
}

// BenchmarkCacheAccessClassified measures the classification overhead.
func BenchmarkCacheAccessClassified(b *testing.B) {
	c := cache.MustNew(cache.Geometry{Size: 8 << 10, BlockSize: 32, Assoc: 2},
		cache.WithClassification())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i) * 32 % (64 << 10))
	}
}

// BenchmarkPresburgerCard measures exact counting of the paper's Figure 1
// iteration space.
func BenchmarkPresburgerCard(b *testing.B) {
	sp := presburger.MustSpace("i1", "i2")
	set := presburger.MustRect(sp, []int64{0, 0}, []int64{8, 3000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.Card(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEsetIntersect measures run-list intersection, the inner loop
// of the sharing analysis.
func BenchmarkEsetIntersect(b *testing.B) {
	ba := eset.NewBuilder()
	bb := eset.NewBuilder()
	for i := int64(0); i < 1000; i++ {
		ba.AddRange(i*10, i*10+6)
		bb.AddRange(i*10+3, i*10+8)
	}
	sa, sb := ba.Build(), bb.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.IntersectCard(sb)
	}
}

// xlAnalysisGraph builds the generated-mix EPG of one XL ladder point
// (tasks = cores/4) for the analysis-phase benchmarks.
func xlAnalysisGraph(b *testing.B, cores int) *locsched.Graph {
	b.Helper()
	apps, err := workload.BuildMany(cores/4, workload.Params{Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, _, err := workload.Combine(apps...)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkComputeMatrixXL measures sharing-matrix construction on the
// XL ladder's generated mixes at 1 and 4 workers. Its pairwise oracle
// runs on the same inputs as internal/sharing's BenchmarkComputeMatrixXL
// (the two are bit-identical; see the sharing differential tests).
func BenchmarkComputeMatrixXL(b *testing.B) {
	for _, cores := range []int{128, 512, 1024} {
		// The graph builds inside the cores-level Run so filtered
		// invocations (CI smokes select 128c only) skip the other rungs'
		// multi-thousand-process setup entirely.
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			g := xlAnalysisGraph(b, cores)
			// Each iteration builds a fresh Analyzer (exactly what a
			// family's sharing-matrix miss does), so the numbers cover the full
			// analysis phase — data spaces plus the pair sweep. The
			// data-space phase additionally benefits from content dedup
			// of repeated app templates; that is part of its design, not
			// benchmark noise (see PERFORMANCE.md).
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
					b.ReportMetric(float64(g.Len()), "procs")
					for i := 0; i < b.N; i++ {
						if _, err := locsched.ComputeSharingParallel(g, workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkLocalityScheduleXL measures the incremental Figure 3 greedy
// on the XL ladder's generated mixes. Its full-rescan oracle runs on the
// same inputs as internal/sched's BenchmarkLocalityScheduleXL (the two
// are bit-identical; see the sched differential tests).
func BenchmarkLocalityScheduleXL(b *testing.B) {
	for _, cores := range []int{128, 512, 1024} {
		cores := cores
		// Graph and matrix build inside the cores-level Run so filtered
		// invocations skip the other rungs' setup (the 1024c matrix alone
		// costs hundreds of milliseconds).
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			g := xlAnalysisGraph(b, cores)
			m, err := locsched.ComputeSharingParallel(g, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("incremental", func(b *testing.B) {
				b.ReportMetric(float64(g.Len()), "procs")
				for i := 0; i < b.N; i++ {
					if _, err := locsched.LocalitySchedule(g, m, cores); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
