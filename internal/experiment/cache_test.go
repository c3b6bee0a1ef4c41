package experiment

import (
	"strings"
	"sync"
	"testing"

	"locsched/internal/mpsoc"
	"locsched/internal/workload"
)

// resetCachesForTest drops the family table (its mix memo and parked
// runners with it) and zeroes every counter, so hit-pattern assertions
// see only the test's own traffic.
func resetCachesForTest() {
	families.Lock()
	dropFamiliesLocked()
	families.stats = CacheStats{}
	families.Unlock()
}

// dropFamiliesForTest drops the family table as the budget would,
// leaving the counters alone.
func dropFamiliesForTest() {
	families.Lock()
	dropFamiliesLocked()
	families.Unlock()
}

// parkedRunners returns the number of runners parked across the table,
// checking the table's count against its families' runner lists.
func parkedRunners(t *testing.T) int {
	t.Helper()
	families.Lock()
	defer families.Unlock()
	n := 0
	for _, f := range families.m {
		for _, rs := range f.runners {
			n += len(rs)
		}
	}
	if n != families.parked {
		t.Fatalf("families hold %d parked runners, the table counts %d", n, families.parked)
	}
	return n
}

// analysisStats is the analysis part of CacheStats: the per-tier hits
// and misses plus whole-table drops.
type analysisStats struct {
	MatrixHits, MatrixMisses int64
	LSHits, LSMisses         int64
	LSMHits, LSMMisses       int64
	Evictions                int64
}

func analysisStatsSnapshot() analysisStats {
	st := Stats()
	return analysisStats{
		MatrixHits: st.MatrixHits, MatrixMisses: st.MatrixMisses,
		LSHits: st.LSHits, LSMisses: st.LSMisses,
		LSMHits: st.LSMHits, LSMMisses: st.LSMMisses,
		Evictions: st.AnalysisEvictions,
	}
}

const reloadSpec = `{
  "tasks": [
    {
      "name": "producer-consumer",
      "arrays": [{"name": "A", "elems": 4096}, {"name": "B", "elems": 2048}],
      "procs": [
        {"name": "produce", "iter_lo": 0, "iter_hi": 1024, "compute": 2,
         "refs": [{"array": "A", "kind": "w", "stride": 1, "offset": 0}], "deps": []},
        {"name": "consume", "iter_lo": 0, "iter_hi": 1024, "compute": 1,
         "refs": [{"array": "A", "kind": "r", "stride": 1, "offset": 0},
                  {"array": "B", "kind": "w", "stride": 1, "offset": 0}], "deps": [0]}
      ]
    },
    {
      "name": "scanner",
      "arrays": [{"name": "C", "elems": 8192}],
      "procs": [
        {"name": "scan", "iter_lo": 0, "iter_hi": 2048, "compute": 1,
         "refs": [{"array": "C", "kind": "r", "stride": 2, "offset": 1}], "deps": []}
      ]
    }
  ]
}`

// TestRunnerPoolContentAddressedReload is the regression test for the
// ROADMAP-noted pooling bug: loading the same JSON task set twice used
// to produce pointer-distinct graphs that missed every pool. With
// content-addressed keys (plus workload interning) the second load's
// runs must be served from the pools populated by the first.
func TestRunnerPoolContentAddressedReload(t *testing.T) {
	resetCachesForTest()
	cfg := DefaultConfig()
	cfg.Machine.Cores = 4

	run := func() *RunResult {
		t.Helper()
		apps, err := workload.FromJSON(strings.NewReader(reloadSpec))
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunMix(apps, LS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	first := run()
	if h := Stats().RunnerPoolHits; h != 0 {
		t.Fatalf("first load already hit the runner pool %d times", h)
	}
	second := run()
	if h := Stats().RunnerPoolHits; h != 1 {
		t.Errorf("second JSON load: runner pool hits = %d, want 1 (reload must reuse the parked runner)", h)
	}
	st := analysisStatsSnapshot()
	if st.LSMisses != 1 || st.LSHits != 1 {
		t.Errorf("LS analysis: misses=%d hits=%d, want 1 miss (first load) and 1 hit (reload)",
			st.LSMisses, st.LSHits)
	}
	if first.Cycles != second.Cycles || first.Hits != second.Hits || first.Misses != second.Misses {
		t.Errorf("reload changed results: %+v vs %+v", first, second)
	}

	if Stats().InternHits == 0 {
		t.Error("second load was not interned onto the first load's canonical workload")
	}
}

// TestAnalysisHitPatternFigure6 pins the analysis hit pattern of a
// figure run: each application's matrix and LS assignment are computed
// exactly once (the LS cell misses them in, the LSM cell reuses the
// assignment through the family instead of recomputing LocalitySchedule),
// and a complete re-run — which rebuilds every app as fresh,
// content-equal objects — is served entirely from the ls/lsm tiers
// without touching the matrix again.
func TestAnalysisHitPatternFigure6(t *testing.T) {
	resetCachesForTest()
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	cfg.Workers = 1 // sequential cells: the hit pattern is deterministic

	if _, err := Figure6(cfg, nil); err != nil {
		t.Fatal(err)
	}
	st := analysisStatsSnapshot()
	want := analysisStats{
		MatrixMisses: 6, // one matrix per app, computed by the LS cell
		LSMisses:     6,
		LSHits:       6, // the LSM cell reuses the cached assignment
		LSMMisses:    6,
	}
	if st != want {
		t.Fatalf("first fig6 run: stats %+v, want %+v", st, want)
	}

	if _, err := Figure6(cfg, nil); err != nil {
		t.Fatal(err)
	}
	st = analysisStatsSnapshot()
	want.LSHits, want.LSMHits = want.LSHits+6, 6 // second run: pure hits, no matrix traffic
	if st != want {
		t.Fatalf("second fig6 run: stats %+v, want %+v (no analysis may be recomputed)", st, want)
	}
	if st.Evictions != 0 {
		t.Fatalf("fig6 runs dropped the family table %d times", st.Evictions)
	}
}

// TestLSMReusesCachedAssignment is the regression test for the
// ROADMAP-noted NewLSM recomputation: across an LS column and an LSM
// column over the same (graph, cores), LocalitySchedule must run exactly
// once — the LSM cell obtains the assignment from the ls tier — in
// either policy order.
func TestLSMReusesCachedAssignment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	cfg.Workers = 1

	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	app := apps[0]

	for _, order := range [][]Policy{{LS, LSM}, {LSM, LS}} {
		resetCachesForTest()
		for _, p := range order {
			if _, err := RunApp(app, p, cfg); err != nil {
				t.Fatalf("%v/%s: %v", order, p, err)
			}
		}
		st := analysisStatsSnapshot()
		if st.LSMisses != 1 {
			t.Errorf("order %v: LocalitySchedule computed %d times, want exactly 1 (LSM must reuse the cached LS assignment)",
				order, st.LSMisses)
		}
		if st.LSHits != 1 {
			t.Errorf("order %v: LS-tier hits = %d, want 1 (the second policy's lookup)", order, st.LSHits)
		}
		if st.MatrixMisses != 1 {
			t.Errorf("order %v: sharing matrix computed %d times, want 1", order, st.MatrixMisses)
		}
	}
	resetCachesForTest()
}

// TestLSMNoMoveReusesBaseRunner: an LSM mapping that moved no array
// hands the simulator the base layout itself, so the LSM cell takes the
// runner an LS cell parked under that layout instead of building (and
// parking) a second one for the same addresses.
func TestLSMNoMoveReusesBaseRunner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	cfg.Workers = 1
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	var mxm *workload.App
	for _, a := range apps {
		if a.Name == "MxM" {
			mxm = a
		}
	}
	resetCachesForTest()
	defer resetCachesForTest()
	if _, err := RunApp(mxm, LS, cfg); err != nil {
		t.Fatal(err)
	}
	hits := Stats().RunnerPoolHits
	r, err := RunApp(mxm, LSM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Relaid != 0 {
		t.Fatalf("MxM's LSM mapping moved %d arrays; this test needs a mapping that moves none", r.Relaid)
	}
	if got := Stats().RunnerPoolHits; got != hits+1 {
		t.Errorf("runner pool hits %d → %d, want +1 (the LSM cell must take the LS cell's runner)", hits, got)
	}
	if parked := parkedRunners(t); parked != 1 {
		t.Errorf("%d runners parked after LS then LSM, want 1 (no runner built for the unmoved layout)", parked)
	}
}

// TestFamilyTableEviction: one budget covers families and their derived
// entries. At the budget the whole table drops, and AnalysisEvictions
// counts it. A cell holding a dropped family finishes on it, but what it
// inserts there is invisible once the same content is interned again.
func TestFamilyTableEviction(t *testing.T) {
	resetCachesForTest()
	orig := maxFamilyEntries
	maxFamilyEntries = 4
	defer func() { maxFamilyEntries = orig; resetCachesForTest() }()

	build := func(name string, task int) *workload.App {
		t.Helper()
		app, err := workload.Build(name, task, workload.Params{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	geom := mpsoc.DefaultConfig().Cache
	tableLen := func() int {
		families.Lock()
		defer families.Unlock()
		return len(families.m)
	}

	// Shape fills the budget: family + matrix + LS + base = 4 entries.
	first := build("Shape", 0)
	shape := internFamily(first.Graph, first.Arrays)
	if _, err := shape.localitySchedule(4, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := shape.base(32); err != nil {
		t.Fatal(err)
	}
	if st := analysisStatsSnapshot(); st.Evictions != 0 {
		t.Fatalf("evictions = %d below the budget, want 0", st.Evictions)
	}

	// Interning Track at the budget drops the whole table first.
	track := build("Track", 1)
	internFamily(track.Graph, track.Arrays)
	if st := analysisStatsSnapshot(); st.Evictions != 1 {
		t.Fatalf("evictions = %d at the budget, want 1", st.Evictions)
	}
	if n := tableLen(); n != 1 {
		t.Fatalf("table holds %d families after the drop, want 1 (Track only)", n)
	}

	// A cell still holding the dropped Shape family finishes on it: its
	// LS assignment is still there, and its new LSM mapping lands in it.
	before := analysisStatsSnapshot()
	if _, err := shape.lsmMapping(4, 32, geom, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if st := analysisStatsSnapshot(); st.LSHits != before.LSHits+1 || st.LSMMisses != before.LSMMisses+1 {
		t.Fatalf("dropped family lost its own entries: stats %+v, before %+v", st, before)
	}
	if n := tableLen(); n != 1 {
		t.Fatalf("an insert through a dropped family re-entered the table (%d families)", n)
	}

	// Re-interning Shape's content yields a fresh family: neither the
	// analysis computed before the drop nor the insert made after it is
	// visible.
	again := build("Shape", 0)
	fresh := internFamily(again.Graph, again.Arrays)
	if fresh == shape {
		t.Fatal("re-interning returned the dropped family")
	}
	before = analysisStatsSnapshot()
	if _, err := fresh.lsmMapping(4, 32, geom, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	st := analysisStatsSnapshot()
	if st.LSMMisses != before.LSMMisses+1 || st.LSMisses != before.LSMisses+1 || st.MatrixMisses != before.MatrixMisses+1 {
		t.Fatalf("re-interned family saw the dropped family's entries: stats %+v, before %+v", st, before)
	}
}

// TestConcurrentReloadsAcrossDrops: concurrent cells on content-equal
// JSON reloads, with a budget small enough that the family table drops
// while they run, produce exactly the sequential results. Under the race
// detector this also covers the table, family maps, mix memo and parked
// runners.
func TestConcurrentReloadsAcrossDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machine.Cores = 4
	policies := []Policy{LS, LSM, RRS}
	load := func() []*workload.App {
		apps, err := workload.FromJSON(strings.NewReader(reloadSpec))
		if err != nil {
			t.Error(err)
		}
		return apps
	}

	resetCachesForTest()
	want := make(map[Policy]*RunResult)
	for _, p := range policies {
		r, err := RunMix(load(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = r
	}

	resetCachesForTest()
	orig := maxFamilyEntries
	maxFamilyEntries = 3
	defer func() { maxFamilyEntries = orig; resetCachesForTest() }()

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				apps := load()
				for j := range policies {
					p := policies[(w+i+j)%len(policies)]
					got, err := RunMix(apps, p, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					if *got != *want[p] {
						t.Errorf("goroutine %d round %d %s: %+v, want %+v", w, i, p, got, want[p])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := analysisStatsSnapshot(); st.Evictions == 0 {
		t.Error("the family table never dropped; the test does not exercise drops mid-flight")
	}
}

// loadReloadSpec decodes reloadSpec into fresh application objects.
func loadReloadSpec(t *testing.T) []*workload.App {
	t.Helper()
	apps, err := workload.FromJSON(strings.NewReader(reloadSpec))
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

// TestFamilyDropReleasesRunners: parked runners belong to their family,
// so a table drop releases them. A reload of the same content after the
// drop interns a fresh family, finds no runner to take, and parks
// exactly one — none of the dropped family's runners lingers beside it.
func TestFamilyDropReleasesRunners(t *testing.T) {
	resetCachesForTest()
	defer resetCachesForTest()
	cfg := DefaultConfig()
	cfg.Machine.Cores = 4

	want, err := RunMix(loadReloadSpec(t), LS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := parkedRunners(t); n != 1 {
		t.Fatalf("%d runners parked after one cell, want 1", n)
	}
	dropFamiliesForTest()
	if n := parkedRunners(t); n != 0 {
		t.Errorf("%d runners still parked after the table drop, want 0", n)
	}

	hits := Stats().RunnerPoolHits
	got, err := RunMix(loadReloadSpec(t), LS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := Stats().RunnerPoolHits; h != hits {
		t.Errorf("reload after the drop took %d parked runners, want 0 (its family is fresh)", h-hits)
	}
	if n := parkedRunners(t); n != 1 {
		t.Errorf("%d runners parked after the reload, want 1", n)
	}
	if *got != *want {
		t.Errorf("reload after the drop: %+v, want %+v", got, want)
	}
}

// TestCombineAppsDropsWithFamilies: the mix memo maps an app set to the
// family of its merged graph, costs one entry of the table's budget and
// is dropped with the table. After a drop, CombineApps over the same app
// set returns the canonical objects of the family its content interns
// onto now, never the dropped family's, and mix cells are unchanged.
func TestCombineAppsDropsWithFamilies(t *testing.T) {
	resetCachesForTest()
	defer resetCachesForTest()
	cfg := DefaultConfig()
	cfg.Machine.Cores = 4
	apps := loadReloadSpec(t)

	g1, _, err := CombineApps(apps)
	if err != nil {
		t.Fatal(err)
	}
	families.Lock()
	n := families.n
	families.Unlock()
	if n != 2 {
		t.Errorf("table charges %d entries after one CombineApps, want 2 (the family and the mix)", n)
	}
	if g, _, err := CombineApps(apps); err != nil || g != g1 {
		t.Fatalf("repeat CombineApps returned a different graph (err %v)", err)
	}
	want, err := RunMix(apps, LS, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dropFamiliesForTest()
	// A content-equal merged graph interned first after the drop becomes
	// the content's canonical object.
	epg, arrays, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	canon := internFamily(epg, arrays)
	g2, a2, err := CombineApps(apps)
	if err != nil {
		t.Fatal(err)
	}
	if g2 == g1 {
		t.Fatal("CombineApps returned the dropped family's graph")
	}
	if g2 != canon.g || len(a2) != len(canon.arrays) {
		t.Fatal("CombineApps did not return the live family's canonical objects")
	}
	for i := range a2 {
		if a2[i] != canon.arrays[i] {
			t.Fatalf("array %d is not the live family's canonical array", i)
		}
	}
	got, err := RunMix(apps, LS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("mix cell after the drop: %+v, want %+v", got, want)
	}
}
