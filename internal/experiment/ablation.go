package experiment

import (
	"fmt"

	"locsched/internal/cache"
	"locsched/internal/sched"
	"locsched/internal/workload"
)

// The ablations quantify the implementation decisions DESIGN.md §7 calls
// out, plus the related-work comparison the paper's Section 5 discusses
// (hardware prime-hash indexing vs. LSM's software re-layout).

// AblationStaticMode runs the LS schedule for the first mixSize
// applications under each runtime interpretation of the static
// assignment: strict in-order, skip-blocked, and steal-when-idle. Each
// point is an ordinary LS cell of the mix (the machine's placement bias
// included), so the steal-when-idle point equals RunMix's LS cell.
func AblationStaticMode(cfg Config, mixSize int) (*Sweep, error) {
	s := &Sweep{Title: fmt.Sprintf("static dispatch mode ablation (|T|=%d, LS)", mixSize)}
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		return nil, err
	}
	mixSize = min(mixSize, len(apps))
	epg, arrays, err := CombineApps(apps[:mixSize])
	if err != nil {
		return nil, err
	}
	for _, mode := range []sched.StaticMode{sched.StrictOrder, sched.SkipBlocked, sched.StealWhenIdle} {
		r, err := runCell(fmt.Sprintf("|T|=%d", mixSize), epg, arrays, LS, cfg, mode)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, SweepPoint{
			Label:   mode.String(),
			Results: map[Policy]*RunResult{LS: r},
		})
	}
	return s, nil
}

// AblationReplacement reruns the full mix under LS with each cache
// replacement policy.
func AblationReplacement(cfg Config) (*Sweep, error) {
	s := &Sweep{Title: "cache replacement ablation (|T|=6, LS)"}
	for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.RandomRepl} {
		c := cfg
		c.Machine.Replacement = repl
		apps, err := workload.BuildAll(c.Workload)
		if err != nil {
			return nil, err
		}
		r, err := RunMix(apps, LS, c)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, SweepPoint{
			Label:   repl.String(),
			Results: map[Policy]*RunResult{LS: r},
		})
	}
	return s, nil
}

// GreedyQualityRow compares the Figure 3 greedy's static objective (total
// successive-pair sharing) against the exact optimum on one application.
type GreedyQualityRow struct {
	App     string
	Procs   int
	Greedy  int64
	Optimal int64
}

// Percent returns the greedy's fraction of the optimum (100 when the
// optimum is zero).
func (r GreedyQualityRow) Percent() float64 {
	if r.Optimal == 0 {
		return 100
	}
	return 100 * float64(r.Greedy) / float64(r.Optimal)
}

// GreedyQuality measures the Figure 3 greedy against the exact
// maximum-sharing schedule on every Table 1 application small enough for
// the exponential solver (Shape and Track at the usual core counts).
// The paper notes its greedy "does not generate the best results in all
// cases"; this quantifies the gap on the suite itself.
func GreedyQuality(cfg Config, cores int) ([]GreedyQualityRow, error) {
	if cores <= 0 {
		cores = cfg.Machine.Cores
	}
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		return nil, err
	}
	var rows []GreedyQualityRow
	for _, app := range apps {
		if app.Procs() > sched.MaxOptimalProcs {
			continue
		}
		// The unbiased greedy: OptimalSchedule maximizes the same
		// machine-independent objective.
		f := internFamily(app.Graph, app.Arrays)
		greedyAsg, err := f.localitySchedule(cores, cfg.Workers, "", nil)
		if err != nil {
			return nil, err
		}
		m, err := f.sharingMatrix(cfg.Workers)
		if err != nil {
			return nil, err
		}
		_, optTotal, err := sched.OptimalSchedule(f.g, m, cores)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GreedyQualityRow{
			App:     app.Name,
			Procs:   app.Procs(),
			Greedy:  sched.SharingOf(greedyAsg, m),
			Optimal: optTotal,
		})
	}
	return rows, nil
}

// FormatGreedyQuality renders the greedy-vs-optimal comparison.
func FormatGreedyQuality(rows []GreedyQualityRow, cores int) string {
	out := fmt.Sprintf("greedy (Figure 3) vs exact maximum-sharing schedule (%d cores)\n", cores)
	out += fmt.Sprintf("%-10s %6s %14s %14s %8s\n", "Task", "Procs", "Greedy (B)", "Optimal (B)", "Quality")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %6d %14d %14d %7.1f%%\n", r.App, r.Procs, r.Greedy, r.Optimal, r.Percent())
	}
	return out
}

// AblationIndexing compares conflict-avoidance approaches on the full
// mix: conventional modulo indexing under LS and LSM (software
// re-layout) versus the hardware prime hashes of the paper's related
// work [5] under plain LS.
func AblationIndexing(cfg Config) (*Sweep, error) {
	s := &Sweep{Title: "conflict avoidance: software re-layout (LSM) vs prime-hash indexing (|T|=6)"}
	type variant struct {
		label  string
		ix     cache.Indexing
		policy Policy
	}
	for _, v := range []variant{
		{"modulo+LS", cache.ModuloIndexing, LS},
		{"modulo+LSM", cache.ModuloIndexing, LSM},
		{"prime-mod+LS", cache.PrimeModuloIndexing, LS},
		{"prime-disp+LS", cache.PrimeDisplacementIndexing, LS},
	} {
		c := cfg
		c.Machine.Indexing = v.ix
		apps, err := workload.BuildAll(c.Workload)
		if err != nil {
			return nil, err
		}
		r, err := RunMix(apps, v.policy, c)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, SweepPoint{
			Label:   v.label,
			Results: map[Policy]*RunResult{v.policy: r},
		})
	}
	return s, nil
}
