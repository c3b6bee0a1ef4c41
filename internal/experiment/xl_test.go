package experiment

import (
	"reflect"
	"testing"

	"locsched/internal/workload"
)

// xlTestConfig keeps the XL differential tests fast: scale-1 workloads,
// sequential cells.
func xlTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Workload = workload.Params{Scale: 1}
	cfg.Workers = 1
	return cfg
}

// TestFigure7XLParallelDeterministic: XL cells fanned out on a worker
// pool produce exactly the sequential result.
func TestFigure7XLParallelDeterministic(t *testing.T) {
	cfg := xlTestConfig()
	points := []XLPoint{{Cores: 32, Tasks: 6}}
	seq, err := Figure7XL(cfg, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Workers = 4
	got, err := Figure7XL(par, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Errorf("parallel Figure7XL diverges from sequential")
	}
}

// TestFigure7XLDefaults: nil points fall back to the 32/64/128-core
// ladder and label rows accordingly. (Build-only sanity: running the
// full ladder is benchmark territory.)
func TestFigure7XLDefaults(t *testing.T) {
	pts := DefaultXLPoints()
	if len(pts) != 3 || pts[0].Cores != 32 || pts[2].Cores != 128 {
		t.Fatalf("unexpected default ladder: %+v", pts)
	}
	for _, pt := range pts {
		if pt.Tasks*4 != pt.Cores {
			t.Errorf("point %v: tasks should scale with cores/4", pt)
		}
	}
}

// TestSweepXLRejectsBadGeometry: impossible size/assoc combinations are
// reported up front, not as mid-grid simulation failures.
func TestSweepXLRejectsBadGeometry(t *testing.T) {
	cfg := xlTestConfig()
	_, err := SweepXL(cfg, []int64{1000}, []int{3}, []int64{75}, nil)
	if err == nil {
		t.Fatal("SweepXL accepted a geometry that cannot validate")
	}
}

// TestBuildMany: generated mixes cycle the Table 1 suite with distinct
// task IDs and private arrays.
func TestBuildMany(t *testing.T) {
	apps, err := workload.BuildMany(14, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 14 {
		t.Fatalf("got %d apps, want 14", len(apps))
	}
	names := workload.Names()
	for i, a := range apps {
		if a.Task != i {
			t.Errorf("app %d: task ID %d", i, a.Task)
		}
		if a.Name != names[i%len(names)] {
			t.Errorf("app %d: name %s, want %s", i, a.Name, names[i%len(names)])
		}
	}
	epg, arrays, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	if epg.Len() == 0 || len(arrays) == 0 {
		t.Fatal("combined mix is empty")
	}
	seen := make(map[string]bool, len(arrays))
	for _, arr := range arrays {
		if seen[arr.Name] {
			t.Errorf("array %s appears twice: tasks must own private arrays", arr.Name)
		}
		seen[arr.Name] = true
	}
}

// TestXLLadder: the doubling 32..maxCores extension of the default
// ladder, with tasks = cores/4.
func TestXLLadder(t *testing.T) {
	pts, err := XLLadder(1024)
	if err != nil {
		t.Fatal(err)
	}
	want := []XLPoint{
		{Cores: 32, Tasks: 8}, {Cores: 64, Tasks: 16}, {Cores: 128, Tasks: 32},
		{Cores: 256, Tasks: 64}, {Cores: 512, Tasks: 128}, {Cores: 1024, Tasks: 256},
	}
	if !reflect.DeepEqual(pts, want) {
		t.Errorf("XLLadder(1024) = %v, want %v", pts, want)
	}
	if pts, err = XLLadder(100); err != nil || !reflect.DeepEqual(pts, want[:2]) {
		t.Errorf("XLLadder(100) = %v, %v; want the 32/64 rungs", pts, err)
	}
	if _, err := XLLadder(16); err == nil {
		t.Error("XLLadder(16) succeeded, want an error below 32 cores")
	}
}

// TestFigure7XL512Point: a single 512-core cell end to end under LS —
// the acceptance point of the analysis-scaling work. The mix is reduced
// (scale 1, LS only) to keep the suite quick while still covering the
// full 512-core pipeline: blocked matrix, incremental schedule, pooled
// runner.
func TestFigure7XL512Point(t *testing.T) {
	if testing.Short() {
		t.Skip("512-core simulation in -short mode")
	}
	cfg := xlTestConfig()
	cfg.Workers = 4
	tbl, err := Figure7XL(cfg, []XLPoint{{Cores: 512, Tasks: 128}}, []Policy{LS})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(tbl.Rows))
	}
	r := tbl.Rows[0].Results[LS]
	if r == nil || r.Cycles <= 0 {
		t.Fatalf("512-core LS cell produced no result: %+v", r)
	}
}
