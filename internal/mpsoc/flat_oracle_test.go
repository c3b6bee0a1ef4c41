package mpsoc

import (
	"sort"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/taskgraph"
	"locsched/internal/trace"
)

// This file keeps the flat-stream segment simulator as the differential
// oracle for runSegmentRLE: newFlatRunner builds an ordinary Runner and
// swaps its segment function for one that replays the fully
// materialized stream access by access. Everything else — the loop,
// both executors, the machine model — is shared, so a flat-vs-RLE
// difference can only come from segment simulation.

// runSegment executes the cursor on the cache until completion or quantum
// expiry (quantum 0 = no limit) and returns the consumed cycles. At least
// one access always executes, so preemptive policies make progress even
// with degenerate quanta. The loop runs directly over the compiled
// stream: two slice loads per access, with the no-quantum case hoisted
// out of the per-access path.
func runSegment(cur *trace.Cursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64) (cycles int64, completed bool) {
	compute := cur.Spec().ComputePerIter
	addrs, flags, start := cur.StreamAt()
	pos, n := start, len(addrs)
	missCost := hitLat + missPenalty

	if quantum <= 0 {
		for ; pos < n; pos++ {
			f := flags[pos]
			if f&trace.FlagNewIter != 0 {
				cycles += compute
			}
			class, wroteBack := c.AccessRW(addrs[pos], f&trace.FlagWrite != 0)
			if class == cache.Hit {
				cycles += hitLat
			} else {
				cycles += missCost
			}
			if wroteBack {
				cycles += wbPenalty
			}
		}
		cur.Skip(pos - start)
		return cycles, true
	}

	for pos < n && cycles < quantum {
		f := flags[pos]
		if f&trace.FlagNewIter != 0 {
			cycles += compute
		}
		class, wroteBack := c.AccessRW(addrs[pos], f&trace.FlagWrite != 0)
		if class == cache.Hit {
			cycles += hitLat
		} else {
			cycles += missCost
		}
		if wroteBack {
			cycles += wbPenalty
		}
		pos++
	}
	cur.Skip(pos - start)
	// A stream that ended exactly on the quantum boundary is a
	// completion, not a preemption.
	return cycles, pos >= n
}

// flatShadow is a process's flat cursor kept in step with the Runner's
// RLE cursor, which stays the engine's record of progress (done checks,
// pool lookahead bounds, resets).
type flatShadow struct {
	flat     *trace.Cursor
	nrefs    int64
	segStart []int64 // segStart[i]: flat index of segment i's first access
}

func newFlatShadow(gen *trace.Generator, rle *trace.RLECursor) (*flatShadow, error) {
	flat, err := gen.NewCursor(rle.Spec())
	if err != nil {
		return nil, err
	}
	s := rle.Stream()
	sh := &flatShadow{flat: flat, nrefs: int64(s.NRefs()), segStart: make([]int64, s.NumSegs()+1)}
	for i := 0; i < s.NumSegs(); i++ {
		_, _, count := s.Seg(i)
		sh.segStart[i+1] = sh.segStart[i] + count*sh.nrefs
	}
	return sh, nil
}

// runSegment replays one segment on the flat stream from the RLE
// cursor's position, then moves the RLE cursor to where the flat one
// stopped.
func (sh *flatShadow) runSegment(rle *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64) (int64, bool) {
	seg, iter, ref := rle.Pos()
	sh.flat.Reset()
	sh.flat.Skip(int(sh.segStart[seg] + iter*sh.nrefs + int64(ref)))
	cycles, completed := runSegment(sh.flat, c, hitLat, missPenalty, wbPenalty, quantum)

	pos := sh.flat.Total() - sh.flat.Remaining()
	nsegs := len(sh.segStart) - 1
	seg = sort.Search(nsegs, func(i int) bool { return sh.segStart[i+1] > pos })
	if seg == nsegs {
		rle.Seek(nsegs, 0, 0)
	} else {
		off := pos - sh.segStart[seg]
		rle.Seek(seg, off/sh.nrefs, int(off%sh.nrefs))
	}
	return cycles, completed
}

// newFlatRunner is NewRunner with every segment simulated by the flat
// oracle instead of runSegmentRLE.
func newFlatRunner(g *taskgraph.Graph, am layout.AddressMap, cfg Config) (*Runner, error) {
	r, err := NewRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	gen := trace.NewGenerator(am)
	shadows := make(map[*trace.RLECursor]*flatShadow, len(r.procs))
	for _, p := range r.procs {
		if shadows[p.cur], err = newFlatShadow(gen, p.cur); err != nil {
			return nil, err
		}
	}
	r.segment = func(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64, _ []int64, _ []bool) (int64, bool) {
		return shadows[cur].runSegment(cur, c, hitLat, missPenalty, wbPenalty, quantum)
	}
	return r, nil
}

// runFlat is Run under the flat oracle.
func runFlat(g *taskgraph.Graph, d Dispatcher, am layout.AddressMap, cfg Config) (*Result, error) {
	r, err := newFlatRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(d)
}
