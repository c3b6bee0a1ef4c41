package trace

import (
	"encoding/binary"
	"fmt"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

// RLEStream is a compiled trace in strided run-length-encoded form. The
// paper's loop nests are overwhelmingly strided: consecutive iterations
// advance every reference by a constant byte delta, so instead of
// materializing one (address, flags) pair per access, the stream is cut
// into segments of consecutive iterations that share a per-iteration
// delta pattern. Each segment stores one start address per reference and
// an index into the interned pattern table; the access at (iteration t,
// reference j) of a segment is
//
//	addr = starts[j] + t·delta[j],  flags = Flags[j]
//
// which reproduces the access-by-access stream bit for bit (segment
// lanes are the {base, stride, count, flags} runs of the encoding).
// Identical delta patterns are deduplicated across segments — a
// relayouted array breaks its stream at every half-page seam into many
// segments that all share one pattern — so resident bytes scale with the
// number of strided phases, not with trace length.
//
// RLEStreams are immutable after compilation and safe to share.
type RLEStream struct {
	nrefs int
	flags []byte // per-reference flag bytes (flags[0] carries FlagNewIter)
	segs  []rleSeg
	// starts holds each segment's per-reference start addresses,
	// segment-major: segment s owns starts[s*nrefs : (s+1)*nrefs].
	starts []int64
	// pats is the interned delta-pattern table, pattern-major: pattern p
	// owns pats[p*nrefs : (p+1)*nrefs].
	pats []int64
	// cumIters[s] is the number of iterations in segments before s;
	// cumIters[len(segs)] is the total iteration count.
	cumIters []int64
}

type rleSeg struct {
	count int64 // iterations in this segment
	pat   int32 // index into the pattern table
}

// NRefs returns the number of references per iteration.
func (s *RLEStream) NRefs() int { return s.nrefs }

// Flags returns the per-reference flag bytes. Callers must not mutate.
func (s *RLEStream) Flags() []byte { return s.flags }

// NumSegs returns the number of segments.
func (s *RLEStream) NumSegs() int { return len(s.segs) }

// NumPatterns returns the number of distinct per-iteration delta patterns.
func (s *RLEStream) NumPatterns() int {
	if s.nrefs == 0 {
		return 0
	}
	return len(s.pats) / s.nrefs
}

// Iters returns the total number of iterations encoded.
func (s *RLEStream) Iters() int64 { return s.cumIters[len(s.segs)] }

// Len returns the total number of accesses encoded.
func (s *RLEStream) Len() int64 { return s.Iters() * int64(s.nrefs) }

// Seg returns segment i's per-reference start addresses and deltas (both
// nrefs long, not to be mutated) and its iteration count.
func (s *RLEStream) Seg(i int) (starts, deltas []int64, count int64) {
	seg := s.segs[i]
	off := i * s.nrefs
	poff := int(seg.pat) * s.nrefs
	return s.starts[off : off+s.nrefs], s.pats[poff : poff+s.nrefs], seg.count
}

// MemBytes approximates the stream's resident size.
func (s *RLEStream) MemBytes() int64 {
	return int64(len(s.segs))*16 +
		int64(len(s.starts))*8 +
		int64(len(s.pats))*8 +
		int64(len(s.cumIters))*8 +
		int64(len(s.flags))
}

// RLE compiles the strided run-length encoding of the spec's stream.
func (g *Generator) RLE(spec *prog.ProcessSpec) (*RLEStream, error) {
	return compileRLE(spec, g.am)
}

// compileRLE cuts the spec's address stream into constant-delta
// segments without visiting its iteration points one by one. The stream
// is described by its per-iteration delta vectors D(t) = A(t+1) − A(t),
// A(t) being the addresses of iteration t's references, in run-length
// form: each innermost row of the iteration space splits into the
// common pieces on which every reference's address is affine
// (prog.Ref.Piece, then layout.AddrFormula.AffineSteps), D is constant
// inside such a piece, and each piece boundary, within a row or between
// rows, contributes one explicit vector. The greedy cut of rleCutter then
// consumes those runs, so its cost grows with the number of pieces, not
// iterations.
func compileRLE(spec *prog.ProcessSpec, am layout.AddressMap) (*RLEStream, error) {
	nrefs := len(spec.Refs)
	s := &RLEStream{nrefs: nrefs, flags: make([]byte, nrefs)}
	if nrefs == 0 {
		// prog.NewProcessSpec rejects empty Refs, but hand-rolled specs can
		// reach here. A zero-reference process makes no accesses
		// (immediately Done), so encode no segments rather than
		// iteration-counting ones.
		s.cumIters = []int64{0}
		return s, nil
	}
	fns, err := resolveRefFns(spec, am)
	if err != nil {
		return nil, err
	}
	for i := range fns {
		s.flags[i] = fns[i].flag
	}

	c := newRLECutter(s)
	var (
		addr  = make([]int64, nrefs) // each reference's address at point x
		astep = make([]int64, nrefs) // its address delta per iteration in its piece
		end   = make([]int64, nrefs) // the exclusive end x of its piece
	)
	err = spec.IterSpace.Rows(func(pt []int64, lo, hi int64) bool {
		last := len(pt) - 1
		for j := range end {
			end[j] = lo
		}
		for x := lo; x < hi; {
			pt[last] = x
			v := hi
			for j := range fns {
				fn := &fns[j]
				if end[j] == x {
					lin, step, n := fn.ref.Piece(pt, hi)
					addr[j] = fn.f.Addr(lin)
					astep[j] = step * fn.f.Elem
					end[j] = x + fn.f.AffineSteps(lin, step, n)
				}
				v = min(v, end[j])
			}
			// Points x..v-1 touch addr + t·astep: one step into the piece
			// from the previous point, then v−x−1 constant deltas.
			c.next(addr)
			if v-x > 1 {
				c.run(astep, v-x-1)
			}
			for j := range addr {
				addr[j] += (v - x) * astep[j]
			}
			x = v
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	c.closeSeg()

	s.cumIters = make([]int64, len(s.segs)+1)
	for i, seg := range s.segs {
		s.cumIters[i+1] = s.cumIters[i] + seg.count
	}
	return s, nil
}

// rleCutter greedily cuts a delta stream into segments: a segment grows
// while each iteration's delta vector equals the one fixed by its second
// iteration, and a differing delta starts a new segment at that
// iteration. Delta patterns are interned in the order segments first use
// them.
type rleCutter struct {
	s        *RLEStream
	patIdx   map[string]int32
	patKey   []byte
	started  bool
	cur      []int64 // addresses of the last iteration consumed
	delta    []int64 // scratch for next
	segCount int64
	segPat   int32 // -1 until the segment's second iteration fixes it
}

func newRLECutter(s *RLEStream) *rleCutter {
	return &rleCutter{
		s:      s,
		patIdx: make(map[string]int32),
		patKey: make([]byte, s.nrefs*8),
		cur:    make([]int64, s.nrefs),
		delta:  make([]int64, s.nrefs),
		segPat: -1,
	}
}

// intern returns the pattern index of delta, adding it when new.
func (c *rleCutter) intern(delta []int64) int32 {
	for j, d := range delta {
		binary.LittleEndian.PutUint64(c.patKey[j*8:], uint64(d))
	}
	if p, ok := c.patIdx[string(c.patKey)]; ok {
		return p
	}
	p := int32(len(c.s.pats) / c.s.nrefs)
	c.patIdx[string(c.patKey)] = p
	c.s.pats = append(c.s.pats, delta...)
	return p
}

// next consumes one iteration whose references touch addr; the first
// one opens the first segment.
func (c *rleCutter) next(addr []int64) {
	if !c.started {
		c.started = true
		copy(c.cur, addr)
		c.s.starts = append(c.s.starts, addr...)
		c.segCount = 1
		return
	}
	for j, a := range addr {
		c.delta[j] = a - c.cur[j]
	}
	c.run(c.delta, 1)
}

// run consumes n ≥ 1 iterations that each advance every reference by
// delta.
func (c *rleCutter) run(delta []int64, n int64) {
	switch {
	case c.segPat < 0:
		// The segment's second iteration fixes its pattern.
		c.segPat = c.intern(delta)
		c.segCount += n
	case patMatches(c.s.pats, c.segPat, c.s.nrefs, delta):
		c.segCount += n
	default:
		c.closeSeg()
		for j, d := range delta {
			c.s.starts = append(c.s.starts, c.cur[j]+d)
		}
		c.segCount = 1
		if n > 1 {
			c.segPat = c.intern(delta)
			c.segCount = n
		}
	}
	for j, d := range delta {
		c.cur[j] += n * d
	}
}

// closeSeg appends the open segment, if any.
func (c *rleCutter) closeSeg() {
	if c.segCount == 0 {
		return
	}
	if c.segPat < 0 {
		// Single-iteration segment (deltas never observed): pattern is
		// irrelevant for playback; intern zeroes so every segment has one.
		c.segPat = c.intern(make([]int64, c.s.nrefs))
	}
	c.s.segs = append(c.s.segs, rleSeg{count: c.segCount, pat: c.segPat})
	c.segCount, c.segPat = 0, -1
}

// patMatches reports whether pattern p equals delta.
func patMatches(pats []int64, p int32, nrefs int, delta []int64) bool {
	off := int(p) * nrefs
	for j, d := range delta {
		if pats[off+j] != d {
			return false
		}
	}
	return true
}

// RLECursor walks a run-length-encoded stream access by access: for
// each iteration of each segment, each reference in program order.
// The position is the (segment, iteration-in-segment, reference) triple,
// so preemptive schedulers can stop a process mid-iteration and resume
// it later, possibly on a different core.
type RLECursor struct {
	spec *prog.ProcessSpec
	s    *RLEStream
	seg  int
	iter int64
	ref  int
}

// NewRLECursor returns a cursor at the start of the process's encoded
// stream.
func (g *Generator) NewRLECursor(spec *prog.ProcessSpec) (*RLECursor, error) {
	s, err := g.RLE(spec)
	if err != nil {
		return nil, err
	}
	return &RLECursor{spec: spec, s: s}, nil
}

// Spec returns the process being traced.
func (c *RLECursor) Spec() *prog.ProcessSpec { return c.spec }

// Stream returns the underlying encoded stream.
func (c *RLECursor) Stream() *RLEStream { return c.s }

// Pos returns the cursor position: current segment, iteration within it,
// and reference within the iteration.
func (c *RLECursor) Pos() (seg int, iter int64, ref int) { return c.seg, c.iter, c.ref }

// Seek commits a position previously derived from Pos and the stream's
// segment shapes. The triple must be normalized: 0 ≤ ref < NRefs, 0 ≤
// iter < the segment's count, and seg ≤ NumSegs (seg == NumSegs with
// iter == ref == 0 is the end-of-stream position).
func (c *RLECursor) Seek(seg int, iter int64, ref int) {
	c.seg, c.iter, c.ref = seg, iter, ref
}

// Next returns the next access; ok is false at end of stream.
func (c *RLECursor) Next() (Access, bool) {
	if c.seg >= len(c.s.segs) {
		return Access{}, false
	}
	seg := c.s.segs[c.seg]
	nrefs := c.s.nrefs
	f := c.s.flags[c.ref]
	addr := c.s.starts[c.seg*nrefs+c.ref] + c.iter*c.s.pats[int(seg.pat)*nrefs+c.ref]
	acc := Access{
		Addr:    addr,
		Write:   f&FlagWrite != 0,
		NewIter: f&FlagNewIter != 0,
	}
	c.ref++
	if c.ref == nrefs {
		c.ref = 0
		c.iter++
		if c.iter == seg.count {
			c.iter = 0
			c.seg++
		}
	}
	return acc, true
}

// Done reports whether the stream is exhausted.
func (c *RLECursor) Done() bool { return c.seg >= len(c.s.segs) }

// consumed returns the number of accesses already executed.
func (c *RLECursor) consumed() int64 {
	iters := c.s.cumIters[min(c.seg, len(c.s.segs))]
	return (iters+c.iter)*int64(c.s.nrefs) + int64(c.ref)
}

// Remaining returns the number of accesses left in the stream.
func (c *RLECursor) Remaining() int64 { return c.s.Len() - c.consumed() }

// Total returns the total number of accesses in the full stream.
func (c *RLECursor) Total() int64 { return c.s.Len() }

// Reset rewinds the cursor to the start of the stream.
func (c *RLECursor) Reset() { c.seg, c.iter, c.ref = 0, 0, 0 }
