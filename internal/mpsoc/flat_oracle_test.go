package mpsoc

import (
	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/taskgraph"
	"locsched/internal/trace"
)

// This file keeps the access-by-access segment simulator as the
// differential oracle for runSegmentRLE: newFlatRunner builds an
// ordinary Runner and swaps its segment function for one that pulls the
// stream one access at a time through RLECursor.Next, with no run
// coalescing, hit fast-forward or quantum capping. Everything else — the
// loop, both executors, the machine model — is shared, so an
// oracle-vs-RLE difference can only come from segment simulation.

// runSegment executes the cursor on the cache until completion or quantum
// expiry (quantum 0 = no limit) and returns the consumed cycles. Every
// access is checked against the quantum before it executes, so at least
// one access always runs and preemptive policies make progress even with
// degenerate quanta.
func runSegment(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64, _ *segScratch) (cycles int64, completed bool) {
	compute := cur.Spec().ComputePerIter
	missCost := hitLat + missPenalty
	for quantum <= 0 || cycles < quantum {
		acc, ok := cur.Next()
		if !ok {
			break
		}
		if acc.NewIter {
			cycles += compute
		}
		class, wroteBack := c.AccessRW(acc.Addr, acc.Write)
		if class == cache.Hit {
			cycles += hitLat
		} else {
			cycles += missCost
		}
		if wroteBack {
			cycles += wbPenalty
		}
	}
	// A stream that ended exactly on the quantum boundary is a
	// completion, not a preemption.
	return cycles, cur.Done()
}

// newFlatRunner is NewRunner with every segment simulated by the
// access-by-access oracle instead of runSegmentRLE.
func newFlatRunner(g *taskgraph.Graph, am layout.AddressMap, cfg Config) (*Runner, error) {
	r, err := NewRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	r.segment = runSegment
	return r, nil
}

// runFlat is Run under the access-by-access oracle.
func runFlat(g *taskgraph.Graph, d Dispatcher, am layout.AddressMap, cfg Config) (*Result, error) {
	r, err := newFlatRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(d)
}
