package mpsoc

import (
	"math/bits"

	"locsched/internal/cache"
	"locsched/internal/trace"
)

// runSegmentRLE executes the cursor on the cache until completion or
// quantum expiry, advancing run-by-run over the strided RLE encoding
// instead of access by access. It is bit-identical to the
// access-by-access simulation the differential tests in this package
// keep as its oracle (runSegment, flat_oracle_test.go): same cycles,
// same preemption point, same cache state and stats.
//
// The coalescing observation: within an RLE segment every reference
// advances by a constant per-iteration delta, so the blocks an iteration
// touches stay fixed until some reference crosses a block boundary. One
// iteration of such a span is simulated per access; if afterwards every
// block of the group is resident, the remaining iterations of the span
// are provably all-hits (hits evict nothing, so residency is inductively
// preserved) and are applied in O(refs) by cache.TryAccessHitIters —
// per-access work is paid only at block boundaries. Quantum expiry can
// split a run mid-flight: fast-forwarding is capped to iterations whose
// every access still passes the pre-access cycles<quantum check, and the
// boundary iteration runs per access so the preemption point lands
// exactly where access-by-access simulation puts it.
//
// The boundary iteration records the line each access hit or filled;
// those lines are the hints that spare TryAccessHitIters its set scans
// when no later access of the iteration evicted them. A reference the
// segment has not yet touched (it resumed mid-iteration) has hint -1.
//
// sc is caller-owned scratch sized to at least the stream's reference
// count: the event loop passes the Runner's, pool helpers pass
// their own so concurrent segment executions never share mutable state.
func runSegmentRLE(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64, sc *segScratch) (cycles int64, completed bool) {
	compute := cur.Spec().ComputePerIter
	s := cur.Stream()
	nrefs := s.NRefs()
	flags := s.Flags()
	missCost := hitLat + missPenalty
	bs := c.Geometry().BlockSize
	nsegs := s.NumSegs()
	// Cost of one fully-hitting iteration, for quantum capping.
	iterCost := compute + int64(nrefs)*hitLat

	blocks := sc.blocks[:nrefs]
	lines := sc.lines[:nrefs]
	writes := sc.writes[:nrefs]
	for j := 0; j < nrefs; j++ {
		lines[j] = -1
		writes[j] = flags[j]&trace.FlagWrite != 0
	}

	seg, iter, ref := cur.Pos()
	for seg < nsegs {
		starts, deltas, count := s.Seg(seg)
		for iter < count {
			// Simulate the current iteration per access. ref is nonzero only
			// when resuming a process preempted mid-iteration (possibly on a
			// different core).
			for ; ref < nrefs; ref++ {
				if quantum > 0 && cycles >= quantum {
					cur.Seek(seg, iter, ref)
					return cycles, false
				}
				f := flags[ref]
				if f&trace.FlagNewIter != 0 {
					cycles += compute
				}
				class, wroteBack := c.AccessRW(starts[ref]+iter*deltas[ref], f&trace.FlagWrite != 0)
				lines[ref] = c.LastLine()
				if class == cache.Hit {
					cycles += hitLat
				} else {
					cycles += missCost
				}
				if wroteBack {
					cycles += wbPenalty
				}
			}
			ref = 0
			iter++
			if iter >= count {
				break
			}

			// Span: how many further iterations keep every reference inside
			// the block it touched in the iteration just simulated?
			span := count - iter
			for j := 0; j < nrefs && span > 0; j++ {
				d := deltas[j]
				if d == 0 {
					continue
				}
				off := c.BlockOffset(starts[j] + (iter-1)*d)
				var left int64
				if d > 0 {
					left = steps(bs-1-off, d)
				} else {
					left = steps(off, -d)
				}
				if left < span {
					span = left
				}
			}
			if span <= 0 {
				continue
			}
			if quantum > 0 {
				// Largest k whose k-th iteration's last access still passes
				// the pre-access check assuming all hits: cycles + k·iterCost
				// − hitLat < quantum.
				kq := (quantum - cycles + hitLat - 1) / iterCost
				if kq < span {
					span = kq
				}
				if span <= 0 {
					continue
				}
			}
			if nrefs == 1 {
				// Single-reference segment: the run is same-block with the
				// access just simulated, which is also the cache's most
				// recent access, so AccessRun resolves it in O(1) with a
				// guaranteed-hit prefix — no residency probe needed.
				c.AccessRun(starts[0]+iter*deltas[0], span, writes[0])
				cycles += span * iterCost
				iter += span
				continue
			}
			for j := 0; j < nrefs; j++ {
				blocks[j] = c.BlockOf(starts[j] + iter*deltas[j])
			}
			if c.TryAccessHitIters(blocks, lines, writes, span) {
				cycles += span * iterCost
				iter += span
			}
			// Not all resident (an intra-group set conflict is thrashing):
			// fall through and keep simulating per access; the span check
			// runs again after the next iteration.
		}
		seg++
		iter = 0
	}
	cur.Seek(seg, 0, 0)
	return cycles, true
}

// steps returns n / d for positive d, by shift when d is a power of two
// (every stride of a power-of-two number of elements).
func steps(n, d int64) int64 {
	if d&(d-1) == 0 {
		return n >> bits.TrailingZeros64(uint64(d))
	}
	return n / d
}
