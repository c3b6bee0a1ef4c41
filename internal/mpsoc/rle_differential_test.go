package mpsoc

import (
	"fmt"
	"reflect"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// rleDiffMaps returns the two layouts every app is checked under: the
// packed base layout and the LSM-derived relayout (falling back to an
// explicit alternating-bank relayout when the mapping phase moves
// nothing, so the interleaved address formula is always exercised).
func rleDiffMaps(t *testing.T, app *workload.App, geom cache.Geometry) map[string]layout.AddressMap {
	t.Helper()
	base, err := layout.Pack(geom.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatalf("%s: Pack: %v", app.Name, err)
	}
	m, err := sharing.ComputeMatrixParallel(app.Graph, 1)
	if err != nil {
		t.Fatalf("%s: ComputeMatrixParallel: %v", app.Name, err)
	}
	_, mapping, err := sched.NewLSM(app.Graph, m, nil, 8, base, geom, nil)
	if err != nil {
		t.Fatalf("%s: NewLSM: %v", app.Name, err)
	}
	rl := mapping.Layout
	if len(mapping.Banks) == 0 {
		banks := make(map[*prog.Array]int64, len(app.Arrays))
		for i, arr := range app.Arrays {
			banks[arr] = int64(i%2) * (geom.PageSize() / 2)
		}
		rl, err = layout.ApplyRelayout(base, geom, banks)
		if err != nil {
			t.Fatalf("%s: ApplyRelayout: %v", app.Name, err)
		}
	}
	return map[string]layout.AddressMap{"Packed": base, "Relayouted": rl}
}

// rleDiffConfigs returns the machine variants the engines are compared
// under: the Table 2 default, a quantum-stressing small-cache variant,
// a write-back variant (dirty-eviction cycles must also match), a
// heterogeneous variant (per-core speed classes on a mesh with a hop
// penalty — the per-core cost tables must agree across engines too),
// the FIFO and random replacement and the two prime-hashed indexing
// paths of the batched cache entry points, the 4 KiB and 16 KiB points
// of the cache-size sweep, and a direct-mapped, low-penalty corner of
// the XL sweep grid.
func rleDiffConfigs() map[string]Config {
	def := DefaultConfig()

	small := DefaultConfig()
	small.Cache = cache.Geometry{Size: 1024, BlockSize: 32, Assoc: 2}
	small.Cores = 2

	wb := DefaultConfig()
	wb.WritePolicy = cache.WriteBack
	wb.WritebackPenalty = 40

	het := DefaultConfig()
	het.Machine = Machine{SpeedClasses: "1,3", Topology: TopoMesh, HopPenalty: 16}

	direct := DefaultConfig()
	direct.Cache.Assoc = 1
	direct.MissPenalty = 25

	cfgs := map[string]Config{"Table2": def, "SmallCache": small, "WriteBack": wb, "Hetero": het, "DirectMapped": direct}
	for name, repl := range map[string]cache.Replacement{"FIFO": cache.FIFO, "RandomRepl": cache.RandomRepl} {
		c := DefaultConfig()
		c.Replacement = repl
		cfgs[name] = c
	}
	for name, ix := range map[string]cache.Indexing{"PrimeModulo": cache.PrimeModuloIndexing, "PrimeDisplacement": cache.PrimeDisplacementIndexing} {
		c := DefaultConfig()
		c.Indexing = ix
		cfgs[name] = c
	}
	for _, size := range []int64{4 << 10, 16 << 10} {
		c := DefaultConfig()
		c.Cache.Size = size
		cfgs[fmt.Sprintf("Cache%dK", size>>10)] = c
	}
	return cfgs
}

// rleDiffDispatchers returns fresh dispatcher constructors for g on a
// machine with the given core count. The quantum 193 is deliberately
// small and odd: it forces preemptions mid-iteration (and mid-run
// resumes on other cores), the hardest case for run splitting; 512 and
// 8192 are the quantum sweep's points. The static dispatchers replay
// g's locality schedule in each runtime mode: work stealing, skip
// blocked, and strict order.
func rleDiffDispatchers(t *testing.T, g *taskgraph.Graph, cores int) map[string]func() Dispatcher {
	t.Helper()
	m, err := sharing.ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := sched.LocalitySchedule(g, m, cores)
	if err != nil {
		t.Fatal(err)
	}
	disps := map[string]func() Dispatcher{
		"RS": func() Dispatcher { return sched.NewRandom(7) },
		// ARR exercises the affinity machinery end to end: warm-biased
		// picks, hint-ordered wakes, quantum batching on warm resumes,
		// and decaying bindings — all with the same odd quantum that
		// forces mid-iteration preemption.
		"ARR-193": func() Dispatcher {
			d, err := sched.NewAffinityRR(sched.AffinityConfig{
				Quantum: 193, Window: 4, QBatch: 2, Decay: 50000,
			})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for _, q := range []int64{193, 512, 4096, 8192} {
		disps[fmt.Sprintf("RRS-%d", q)] = func() Dispatcher {
			d, err := sched.NewRoundRobin(q)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	for _, mode := range []sched.StaticMode{sched.StealWhenIdle, sched.SkipBlocked, sched.StrictOrder} {
		disps["LS-"+mode.String()] = func() Dispatcher { return sched.NewStaticMode("LS", asg, mode) }
	}
	return disps
}

// TestRLEEngineMatchesFlat: for every Table 1 application under both
// address maps, every machine variant, and both run-to-completion and
// preemptive dispatchers, the strided-RLE block-coalesced segment
// simulation produces results bit-identical to the flat
// (access-by-access) oracle: makespan, per-core busy cycles and cache
// stats (hits, cold/capacity/conflict misses, writebacks), completion
// times, preemption and idle counts.
func TestRLEEngineMatchesFlat(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for cfgName, cfg := range rleDiffConfigs() {
		for _, app := range apps {
			for amName, am := range rleDiffMaps(t, app, cfg.Cache) {
				for dName, mkDisp := range rleDiffDispatchers(t, app.Graph, cfg.Cores) {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", cfgName, app.Name, amName, dName), func(t *testing.T) {
						assertFlatMatchesRLE(t, app.Graph, mkDisp, am, cfg)
					})
				}
			}
		}
	}
}

// TestRLEEngineSingleRef: processes with exactly one reference take the
// engine's AccessRun fast path (same-block runs resolved in one call
// with no residency probe); a chain of single-ref strided readers and
// writers must stay bit-identical to the flat oracle, with and without
// preemption and under write-back.
func TestRLEEngineSingleRef(t *testing.T) {
	arr := prog.MustArray("sr.A", 4, 1<<16)
	g := taskgraph.New()
	var prev taskgraph.ProcID
	for i := 0; i < 6; i++ {
		iter := prog.Seg("i", 0, 700)
		kind := prog.Read
		if i%2 == 1 {
			kind = prog.Write
		}
		// Varied strides and overlapping offsets: spans of different
		// lengths, some same-block reuse across processes.
		spec := prog.MustProcessSpec(fmt.Sprintf("sr.p%d", i), iter, 2,
			prog.StreamRef(arr, kind, iter, int64(1+i%3), int64(i*512)))
		id := taskgraph.ProcID{Task: 0, Idx: i}
		if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if i > 0 && i%2 == 0 {
			if err := g.AddDep(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	base, err := layout.Pack(32, arr)
	if err != nil {
		t.Fatal(err)
	}
	for cfgName, cfg := range rleDiffConfigs() {
		for dName, mkDisp := range rleDiffDispatchers(t, g, cfg.Cores) {
			t.Run(fmt.Sprintf("%s/%s", cfgName, dName), func(t *testing.T) {
				assertFlatMatchesRLE(t, g, mkDisp, base, cfg)
			})
		}
	}
}

// TestRLEEngineRunnerReuse: resetting and re-running a Runner (the path
// repeated experiment cells take) stays bit-identical to the flat oracle.
func TestRLEEngineRunnerReuse(t *testing.T) {
	app, err := workload.Build("Radar", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatal(err)
	}
	flatRunner, err := newFlatRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rleRunner, err := NewRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		flat, err := flatRunner.Run(sched.MustRoundRobin(193))
		if err != nil {
			t.Fatal(err)
		}
		rle, err := rleRunner.Run(sched.MustRoundRobin(193))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flat, rle) {
			t.Errorf("run %d: results diverge:\nflat: %+v\nrle:  %+v", i, flat, rle)
		}
	}
}

// TestRLEEngineMatchesFlatXLMix: a generated 32-core combined mix (eight
// Table 1 tasks) under both address maps and every dispatcher — the
// scale at which idle-offer elision and cross-task stealing dominate.
func TestRLEEngineMatchesFlatXLMix(t *testing.T) {
	apps, err := workload.BuildMany(8, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	epg, arrays, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	mix := &workload.App{Name: "mix32", Graph: epg, Arrays: arrays}
	cfg := DefaultConfig()
	cfg.Cores = 32
	for amName, am := range rleDiffMaps(t, mix, cfg.Cache) {
		for dName, mkDisp := range rleDiffDispatchers(t, epg, cfg.Cores) {
			t.Run(fmt.Sprintf("%s/%s", amName, dName), func(t *testing.T) {
				assertFlatMatchesRLE(t, epg, mkDisp, am, cfg)
			})
		}
	}
}

// assertFlatMatchesRLE runs one cell under the flat oracle and under
// runSegmentRLE, on the inline and on the pooled executor, and fails
// unless the Results are deeply equal.
func assertFlatMatchesRLE(t *testing.T, g *taskgraph.Graph, mkDisp func() Dispatcher, am layout.AddressMap, cfg Config) {
	t.Helper()
	flat, err := runFlat(g, mkDisp(), am, cfg)
	if err != nil {
		t.Fatalf("flat oracle: %v", err)
	}
	r, err := NewRunner(g, am, cfg)
	if err != nil {
		t.Fatalf("RLE engine: %v", err)
	}
	for _, workers := range []int{0, 2} {
		rle, err := r.RunParallel(mkDisp(), workers)
		if err != nil {
			t.Fatalf("RLE engine, %d workers: %v", workers, err)
		}
		if !reflect.DeepEqual(flat, rle) {
			t.Errorf("%d workers: results diverge:\nflat: %+v\nrle:  %+v", workers, flat, rle)
		}
	}
}
