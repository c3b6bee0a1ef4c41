package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/taskgraph"
)

// This file is the experiment package's serving surface: the exported
// entry points internal/server builds its content-addressed request keys
// and /statsz counters on. Everything here is a thin, stable veneer over
// the workload family table (family.go, which also holds CombineApps'
// mix memo and the parked runners) — the serving daemon reuses the exact
// families the CLI harness populates, so a figure computed by one client
// warms every later request for the same content.

// ContentKey returns the content-addressed identity of a workload under
// a packing alignment: the graph fingerprint (taskgraph.Content) joined
// with the base-layout fingerprint of the packed array list. Two calls
// return equal keys exactly when the simulated behaviour is equal for
// equal machine/policy configurations, so the serving layer uses it as
// the workload half of every request key. The workload is interned as a
// side effect (see internFamily), which is what makes a daemon's
// repeated JSON loads land on one family and its parked runners.
func ContentKey(g *taskgraph.Graph, arrays []*prog.Array, align int64) (string, error) {
	if align <= 0 {
		return "", fmt.Errorf("experiment: alignment %d must be positive", align)
	}
	f := internFamily(g, arrays)
	base, err := f.base(align)
	if err != nil {
		return "", err
	}
	return f.g.Fingerprint() + "+" + base.fp, nil
}

// ConfigDigest returns a canonical digest of everything in a Config that
// can change a simulation's observable result: the machine (cores, cache
// geometry, latencies, replacement, indexing, write policy, bus model,
// plus the heterogeneity extension — speed classes, topology, hop
// penalty), the policy parameters (quantum, seed, affinity family), and
// the layout alignment. Workers, SimWorkers, and
// RecordTimeline are deliberately excluded: they change how fast a
// result is computed and what side channels are captured, never the
// result cells themselves (both segment executors are bit-identical),
// so cached response bytes stay valid across any parallelism setting.
// The literal "|flat=false" is what the retired flat-stream engine
// switch hashed to; it stays so every existing cache key and store
// record keeps its digest.
func ConfigDigest(cfg Config) string {
	m := cfg.Machine
	h := sha256.New()
	fmt.Fprintf(h, "cores=%d|cache=%d,%d,%d|repl=%d|idx=%d|cls=%t|lat=%d,%d|clk=%d|seed=%d|bus=%g|wp=%d,%d|flat=false",
		m.Cores, m.Cache.Size, m.Cache.BlockSize, m.Cache.Assoc,
		m.Replacement, m.Indexing, m.Classify, m.HitLatency, m.MissPenalty,
		m.ClockMHz, m.Seed, m.BusFactor, m.WritePolicy, m.WritebackPenalty)
	fmt.Fprintf(h, "|speeds=%s|topo=%d|hop=%d",
		m.Machine.SpeedClasses, m.Machine.Topology, m.Machine.HopPenalty)
	fmt.Fprintf(h, "|q=%d|seed=%d|align=%d|aff=%d,%d,%d|scale=%d",
		cfg.Quantum, cfg.Seed, cfg.Align, cfg.Affinity, cfg.QBatch, cfg.AffinityDecay,
		cfg.Workload.Scale)
	return hex.EncodeToString(h.Sum(nil))
}

// AnalyzeLS returns the (cached) LS assignment for a workload on the
// given core count, running only the scheduling analysis — sharing
// matrix plus the Figure 3 greedy — with no simulation. The workload is
// interned first so the result lands in (and is served from) the same
// family the simulation path uses.
func AnalyzeLS(g *taskgraph.Graph, arrays []*prog.Array, cores, workers int) (*sched.Assignment, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("experiment: cores %d must be positive", cores)
	}
	// The analysis endpoint has no machine spec, so the schedule is the
	// homogeneous (unbiased) one.
	return internFamily(g, arrays).localitySchedule(cores, workers, "", nil)
}

// CacheStats is a point-in-time snapshot of the experiment layer's
// family-table counters (analysis tiers, interning, parked runners),
// exported for the serving daemon's /statsz endpoint and for regression
// tests. Each field's tag declares the /metricsz series that publishes
// it (obs.Publish).
type CacheStats struct {
	// MatrixHits counts sharing-matrix tier hits.
	MatrixHits int64 `metric:"locsched_experiment_matrix_hits_total" help:"Sharing-matrix analysis tier cache hits."`
	// MatrixMisses counts sharing-matrix tier misses.
	MatrixMisses int64 `metric:"locsched_experiment_matrix_misses_total" help:"Sharing-matrix analysis tier cache misses."`
	// LSHits counts LS-assignment tier hits.
	LSHits int64 `metric:"locsched_experiment_ls_hits_total" help:"LS-assignment analysis tier cache hits."`
	// LSMisses counts LS-assignment tier misses.
	LSMisses int64 `metric:"locsched_experiment_ls_misses_total" help:"LS-assignment analysis tier cache misses."`
	// LSMHits counts LSM-mapping tier hits.
	LSMHits int64 `metric:"locsched_experiment_lsm_hits_total" help:"LSM-mapping analysis tier cache hits."`
	// LSMMisses counts LSM-mapping tier misses.
	LSMMisses int64 `metric:"locsched_experiment_lsm_misses_total" help:"LSM-mapping analysis tier cache misses."`
	// AnalysisEvictions counts whole-table drops of the family table.
	AnalysisEvictions int64 `metric:"locsched_experiment_analysis_evictions_total" help:"Whole-table drops of the workload family table."`
	// RunnerPoolHits counts simulations served a runner parked by an
	// earlier cell.
	RunnerPoolHits int64 `metric:"locsched_experiment_runner_pool_hits_total" help:"Simulations served a pooled runner."`
	// InternHits counts content-equal workloads swapped for an already
	// canonical object family.
	InternHits int64 `metric:"locsched_experiment_intern_hits_total" help:"Content-equal workloads swapped for a canonical object family."`
}

// Stats snapshots the experiment-layer cache counters.
func Stats() CacheStats {
	families.Lock()
	defer families.Unlock()
	return families.stats
}
