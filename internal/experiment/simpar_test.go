package experiment

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestEffectiveSimWorkers: cell-level and intra-run parallelism share
// one CPU budget — the product never exceeds it (modulo the at-least-1
// floor that keeps a configured pooled executor selected).
func TestEffectiveSimWorkers(t *testing.T) {
	cases := []struct {
		cellWorkers, simWorkers, budget, want int
	}{
		{1, 0, 8, 0},  // SimWorkers 0: inline executor, always
		{1, 2, 2, 2},  // a lone cell on 2 CPUs: the loop and one helper
		{1, 4, 8, 4},  // single cell: full request honored within budget
		{1, 16, 8, 8}, // single cell: clamped to the whole budget
		{2, 4, 8, 4},  // two cells split an 8-way budget evenly
		{4, 4, 2, 1},  // the oversubscription footgun: 4×4 on 2 CPUs → 1 each
		{4, 2, 2, 1},  // share floor is 1, request above it clamps down
		{8, 1, 2, 1},  // a 1-worker request always stands (the inline executor)
		{0, 4, 2, 1},  // Workers=0 means GOMAXPROCS cells: share is 1
		{3, 2, 8, 2},  // request below the share is honored as-is
	}
	for _, c := range cases {
		if got := effectiveSimWorkers(c.cellWorkers, c.simWorkers, c.budget); got != c.want {
			t.Errorf("effectiveSimWorkers(%d, %d, %d) = %d, want %d",
				c.cellWorkers, c.simWorkers, c.budget, got, c.want)
		}
	}
}

// TestSimWorkersDeterministic: every figure the harness produces is
// bit-identical across SimWorkers 0 (inline executor), 2, 4, and
// NumCPU — on Figure 6, a 32-core XL point, and the ARR ablation grid
// (whose cells exercise warm wakes, quantum batching, and decay through
// the pooled executor).
func TestSimWorkersDeterministic(t *testing.T) {
	base := DefaultConfig()
	base.Workload.Scale = 1
	policies := []Policy{RS, RRS, ARR, LS, LSM}

	counts := []int{0, 2, 4}
	if n := runtime.NumCPU(); n > 2 && n != 4 {
		counts = append(counts, n)
	}

	type figures struct {
		fig6, figXL *Table
		grid        *Sweep
	}
	build := func(simWorkers int) figures {
		t.Helper()
		cfg := base
		cfg.SimWorkers = simWorkers
		fig6, err := Figure6(cfg, policies)
		if err != nil {
			t.Fatalf("SimWorkers=%d: Figure6: %v", simWorkers, err)
		}
		figXL, err := Figure7XL(cfg, []XLPoint{{Cores: 32, Tasks: 8}}, policies)
		if err != nil {
			t.Fatalf("SimWorkers=%d: Figure7XL: %v", simWorkers, err)
		}
		grid, err := AblationAffinity(cfg, []int{0, 4}, []int{1, 2})
		if err != nil {
			t.Fatalf("SimWorkers=%d: AblationAffinity: %v", simWorkers, err)
		}
		return figures{fig6: fig6, figXL: figXL, grid: grid}
	}

	want := build(0)
	for _, w := range counts[1:] {
		got := build(w)
		if !reflect.DeepEqual(want.fig6, got.fig6) {
			t.Errorf("SimWorkers=%d: Figure6 diverges from the inline executor", w)
		}
		if !reflect.DeepEqual(want.figXL, got.figXL) {
			t.Errorf("SimWorkers=%d: Figure7XL diverges from the inline executor", w)
		}
		if !reflect.DeepEqual(want.grid, got.grid) {
			t.Errorf("SimWorkers=%d: affinity ablation diverges from the inline executor", w)
		}
	}
}

// TestSimWorkersOversubscription: the ISSUE's footgun scenario —
// Workers=4 combined with SimWorkers=4 on a GOMAXPROCS=2 host — must
// not multiply goroutines, and the clamped run stays bit-identical to
// the fully sequential one.
func TestSimWorkersOversubscription(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	if got := effectiveSimWorkers(4, 4, runtime.GOMAXPROCS(0)); got != 1 {
		t.Fatalf("effectiveSimWorkers(4, 4, GOMAXPROCS=2) = %d, want 1", got)
	}

	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	policies := []Policy{RS, RRS, ARR, LS}
	seq, err := Figure6(cfg, policies)
	if err != nil {
		t.Fatalf("sequential Figure6: %v", err)
	}
	cfg.Workers = 4
	cfg.SimWorkers = 4
	both, err := Figure6(cfg, policies)
	if err != nil {
		t.Fatalf("Workers=4 SimWorkers=4 Figure6: %v", err)
	}
	if !reflect.DeepEqual(seq, both) {
		t.Error("combined-parallelism Figure6 diverges from sequential run")
	}
}

// TestSimWorkersDefault: DefaultConfig offers a run every CPU, which a
// lone cell (Workers 1, the ladders' shape) gets in full, concurrent
// cells share, and a single CPU turns back into the inline executor.
func TestSimWorkersDefault(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		cfg := DefaultConfig()
		runtime.GOMAXPROCS(prev)
		if cfg.SimWorkers != procs {
			t.Fatalf("GOMAXPROCS=%d: DefaultConfig().SimWorkers = %d", procs, cfg.SimWorkers)
		}
		if got := effectiveSimWorkers(1, cfg.SimWorkers, procs); got != procs {
			t.Errorf("GOMAXPROCS=%d, Workers=1: %d sim workers, want %d", procs, got, procs)
		}
		if got := effectiveSimWorkers(0, cfg.SimWorkers, procs); got != 1 {
			t.Errorf("GOMAXPROCS=%d, Workers=0: %d sim workers, want 1", procs, got)
		}
	}
}

// TestSimWorkersValidate: negative SimWorkers is rejected up front.
func TestSimWorkersValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("want validation error for SimWorkers=-1")
	} else if !strings.Contains(err.Error(), "sim workers -1") {
		t.Fatalf("unexpected error %v", err)
	}
}
