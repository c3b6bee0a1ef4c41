package experiment

import "locsched/internal/obs"

// RegisterMetrics publishes the experiment layer's cache counters on r
// under the locsched_experiment_* names. The series are func-backed
// reads of the same process-wide counters Stats() snapshots, so
// /metricsz and /statsz can never disagree about them.
func RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	counter := func(name, help string, read func(CacheStats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(read(Stats())) })
	}
	counter("locsched_experiment_matrix_hits_total",
		"Sharing-matrix analysis tier cache hits.",
		func(s CacheStats) int64 { return s.MatrixHits })
	counter("locsched_experiment_matrix_misses_total",
		"Sharing-matrix analysis tier cache misses.",
		func(s CacheStats) int64 { return s.MatrixMisses })
	counter("locsched_experiment_ls_hits_total",
		"LS-assignment analysis tier cache hits.",
		func(s CacheStats) int64 { return s.LSHits })
	counter("locsched_experiment_ls_misses_total",
		"LS-assignment analysis tier cache misses.",
		func(s CacheStats) int64 { return s.LSMisses })
	counter("locsched_experiment_lsm_hits_total",
		"LSM-mapping analysis tier cache hits.",
		func(s CacheStats) int64 { return s.LSMHits })
	counter("locsched_experiment_lsm_misses_total",
		"LSM-mapping analysis tier cache misses.",
		func(s CacheStats) int64 { return s.LSMMisses })
	counter("locsched_experiment_analysis_evictions_total",
		"Whole-table drops of the workload family table.",
		func(s CacheStats) int64 { return s.AnalysisEvictions })
	counter("locsched_experiment_runner_pool_hits_total",
		"Simulations served a pooled runner.",
		func(s CacheStats) int64 { return s.RunnerPoolHits })
	counter("locsched_experiment_intern_hits_total",
		"Content-equal workloads swapped for a canonical object family.",
		func(s CacheStats) int64 { return s.InternHits })
}
