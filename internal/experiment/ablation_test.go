package experiment

import (
	"strings"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/mpsoc"
	"locsched/internal/sched"
	"locsched/internal/workload"
)

func TestAblationStaticMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	s, err := AblationStaticMode(cfg, 4)
	if err != nil {
		t.Fatalf("AblationStaticMode: %v", err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(s.Points))
	}
	strict := s.Points[0].Results[LS].Cycles
	steal := s.Points[2].Results[LS].Cycles
	// Work conservation must never be slower than strict in-order waiting.
	if steal > strict {
		t.Errorf("steal mode (%d cycles) should beat strict mode (%d cycles)", steal, strict)
	}
}

// TestAblationStaticModeStealMatchesLSCell: the steal-when-idle point
// of the static-mode ablation is the LS cell of the same mix, on the
// paper's machine and on a heterogeneous mesh whose placement bias
// reorders the LS cores.
func TestAblationStaticModeStealMatchesLSCell(t *testing.T) {
	het := DefaultConfig()
	het.Machine.Machine = mpsoc.Machine{SpeedClasses: "1,4", Topology: mpsoc.TopoMesh, HopPenalty: 16}
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "hetero": het} {
		t.Run(name, func(t *testing.T) {
			s, err := AblationStaticMode(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			steal := s.Points[2]
			if steal.Label != sched.StealWhenIdle.String() {
				t.Fatalf("point 2 is %q, want %q", steal.Label, sched.StealWhenIdle)
			}
			apps, err := workload.BuildAll(cfg.Workload)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunMix(apps[:4], LS, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := steal.Results[LS]
			if got.Cycles != want.Cycles || got.Hits != want.Hits || got.Misses != want.Misses || got.Conflicts != want.Conflicts {
				t.Errorf("steal point %d cycles, %d hits, %d misses, %d conflicts; LS cell %d, %d, %d, %d",
					got.Cycles, got.Hits, got.Misses, got.Conflicts, want.Cycles, want.Hits, want.Misses, want.Conflicts)
			}
		})
	}
}

func TestAblationReplacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	s, err := AblationReplacement(cfg)
	if err != nil {
		t.Fatalf("AblationReplacement: %v", err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(s.Points))
	}
	for _, pt := range s.Points {
		if pt.Results[LS].Cycles <= 0 {
			t.Errorf("%s: no cycles", pt.Label)
		}
	}
}

func TestAblationIndexing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	s, err := AblationIndexing(cfg)
	if err != nil {
		t.Fatalf("AblationIndexing: %v", err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(s.Points))
	}
	find := func(label string) *RunResult {
		for _, pt := range s.Points {
			if pt.Label == label {
				for _, r := range pt.Results {
					return r
				}
			}
		}
		t.Fatalf("missing point %q", label)
		return nil
	}
	plainLS := find("modulo+LS")
	lsm := find("modulo+LSM")
	primeLS := find("prime-mod+LS")
	// Both conflict-avoidance approaches must cut conflict misses
	// relative to plain LS (Track's thrash dominates this workload).
	if lsm.Conflicts >= plainLS.Conflicts {
		t.Errorf("LSM conflicts %d should be below plain LS's %d", lsm.Conflicts, plainLS.Conflicts)
	}
	if primeLS.Conflicts >= plainLS.Conflicts {
		t.Errorf("prime-modulo conflicts %d should be below plain LS's %d", primeLS.Conflicts, plainLS.Conflicts)
	}
}

func TestGreedyQuality(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	rows, err := GreedyQuality(cfg, 4)
	if err != nil {
		t.Fatalf("GreedyQuality: %v", err)
	}
	// Shape (9) and Track (12) fit the exact solver's limit.
	if len(rows) < 2 {
		t.Fatalf("got %d rows, want at least Shape and Track", len(rows))
	}
	for _, r := range rows {
		if r.Greedy > r.Optimal {
			t.Errorf("%s: greedy %d beats 'optimal' %d", r.App, r.Greedy, r.Optimal)
		}
		if r.Optimal <= 0 {
			t.Errorf("%s: no sharing found", r.App)
		}
		if r.Percent() < 40 {
			t.Errorf("%s: greedy reaches only %.1f%% of optimal", r.App, r.Percent())
		}
	}
	out := FormatGreedyQuality(rows, 4)
	if !strings.Contains(out, "Shape") || !strings.Contains(out, "%") {
		t.Errorf("rendering missing fields:\n%s", out)
	}
	if (GreedyQualityRow{Optimal: 0}).Percent() != 100 {
		t.Error("zero-optimum quality should be 100%")
	}
}

func TestIndexingConfigReachesEngine(t *testing.T) {
	// A prime-indexed run must differ from a modulo run (same seed, same
	// workload): the hash changes hit patterns.
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunApp(apps[4], LS, cfg) // Track: conflict-heavy
	if err != nil {
		t.Fatal(err)
	}
	cfg.Machine.Indexing = cache.PrimeModuloIndexing
	apps2, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	prime, err := RunApp(apps2[4], LS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prime.Conflicts >= base.Conflicts {
		t.Errorf("prime indexing should cut Track's conflicts: %d vs %d",
			prime.Conflicts, base.Conflicts)
	}
}
