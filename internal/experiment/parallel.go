package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// effectiveSimWorkers resolves the intra-run engine pool size for one
// cell so that cell-level (Workers) and intra-run (SimWorkers)
// parallelism share one CPU budget instead of multiplying goroutines:
// each of the cellWorkers concurrent cells gets an equal share of the
// budget (at least 1), and simWorkers is clamped to that share.
// simWorkers <= 0 yields 0 and a share of 1 yields 1, both the inline
// executor; cellWorkers <= 0 means GOMAXPROCS cells may run at once,
// leaving a share of 1. E.g. Workers=4, SimWorkers=4 on GOMAXPROCS=2
// yields 1 — four concurrent cells each simulating inline — not 16
// runnable goroutines, and Workers=1 with the default SimWorkers yields
// the whole budget: the loop and a helper per further CPU.
func effectiveSimWorkers(cellWorkers, simWorkers, budget int) int {
	if simWorkers <= 0 {
		return 0
	}
	if cellWorkers <= 0 {
		cellWorkers = budget
	}
	share := budget / cellWorkers
	if share < 1 {
		share = 1
	}
	if simWorkers < share {
		return simWorkers
	}
	return share
}

// runCells executes fn(0), …, fn(n-1) on a bounded worker pool. Each cell
// of a figure or sweep owns its dispatcher, caches, and cursors and is
// side-effect-free, so cells are embarrassingly parallel; results are
// written into caller-owned slots indexed by cell, which keeps the
// assembled output deterministic regardless of completion order. The
// returned error is the first failing cell in cell order.
//
// workers ≤ 0 uses GOMAXPROCS; workers == 1 (or n == 1) runs inline.
func runCells(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					// Stop claiming new cells; in-flight cells finish.
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
