// Package trace turns a process's static description (iteration space ×
// affine references) into the dynamic address stream the simulated cores
// execute. Cursors are resumable so that preemptive schedulers (the
// paper's RRS baseline) can stop a process mid-stream and continue it
// later, possibly on a different core.
//
// Streams are compiled once per (ProcessSpec, AddressMap) pair. The
// simulator runs the strided run-length encoding (RLEStream), which is
// built from the affine pieces of the references' addresses rather than
// by visiting iteration points; the flat structure-of-arrays form
// (Stream: addresses plus packed flag bytes) walks every point and
// serves trace inspection and the engine's test oracle. Compiled streams
// are shared by all cursors of a generator and, keyed by every
// reference's closed-form address formula (layout.AddrFormula), across
// generators and runs through a bounded package-level cache, so repeated
// experiments pay compilation once.
package trace

import (
	"fmt"
	"strconv"
	"sync"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

// Access is one memory reference of the stream.
type Access struct {
	Addr    int64
	Write   bool
	NewIter bool // first access of an iteration: charge compute cycles
}

// Flag bits of Stream.Flags.
const (
	// FlagWrite marks a store reference.
	FlagWrite byte = 1 << 0
	// FlagNewIter marks the first access of an iteration point.
	FlagNewIter byte = 1 << 1
)

// Stream is a compiled address trace in structure-of-arrays form: the
// i-th access touches Addrs[i] with the properties packed in Flags[i].
// Streams are immutable after compilation and safe to share.
type Stream struct {
	Addrs []int64
	Flags []byte
}

// Len returns the number of accesses in the stream.
func (s *Stream) Len() int { return len(s.Addrs) }

// streamKey identifies a compiled stream across generators: the process
// plus the exact closed-form addressing of every reference. Entries
// retain their spec pointer, so a key can never alias a different
// (collected and reallocated) spec.
type streamKey struct {
	spec *prog.ProcessSpec
	sig  string
}

// memSized is anything that can report its resident size — the two
// compiled stream forms.
type memSized interface{ MemBytes() int64 }

// boundedCache shares compiled streams across runs. Bounded by entry
// count and by total resident bytes (flat streams are fully
// materialized traces, so dense layout sweeps could otherwise pin
// gigabytes); once either bound is hit the cache is cleared wholesale —
// streams are cheap to recompile, the bounds only guard unbounded
// growth under churn. One instantiation per stream form keeps the
// locking/eviction protocol in a single place.
type boundedCache[S memSized] struct {
	sync.Mutex
	m     map[streamKey]S
	bytes int64
}

// lookup returns the cached stream for key, if any.
func (c *boundedCache[S]) lookup(key streamKey) (S, bool) {
	c.Lock()
	defer c.Unlock()
	s, ok := c.m[key]
	return s, ok
}

// add inserts s under key and returns the canonical entry: when a
// concurrent caller compiled the same stream first, its copy is adopted
// so the byte accounting stays exact.
func (c *boundedCache[S]) add(key streamKey, s S) S {
	c.Lock()
	defer c.Unlock()
	if prior, ok := c.m[key]; ok {
		return prior
	}
	if c.m == nil || len(c.m) >= maxCachedStreams || c.bytes+s.MemBytes() > maxCachedStreamBytes {
		c.m = make(map[streamKey]S)
		c.bytes = 0
	}
	c.m[key] = s
	c.bytes += s.MemBytes()
	return s
}

var streamCache boundedCache[*Stream]

const (
	// maxCachedStreams bounds entries per cache. Large-scale mixes hold
	// hundreds of live specs at once (128-core Figure 7-XL runs ~600), so
	// the cap must comfortably exceed that or every run recompiles its
	// whole working set; the byte bound is what actually limits memory.
	maxCachedStreams     = 4096
	maxCachedStreamBytes = 256 << 20
)

// MemBytes approximates the stream's resident size: 8 address bytes plus
// 1 flag byte per access.
func (s *Stream) MemBytes() int64 { return int64(len(s.Addrs)) * 9 }

// addrSignature returns a string uniquely describing the addressing of
// every reference of the spec under am, or ok=false when am does not
// know one of the spec's arrays.
func addrSignature(spec *prog.ProcessSpec, am layout.AddressMap) (string, bool) {
	buf := make([]byte, 0, 16*len(spec.Refs))
	for _, ref := range spec.Refs {
		f, ok := am.CompileAddr(ref.Array)
		if !ok {
			return "", false
		}
		buf = strconv.AppendInt(buf, f.Base, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, f.Elem, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, f.Page, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, f.Bank, 10)
		buf = append(buf, ';')
	}
	return string(buf), true
}

// Generator compiles and caches streams over process specs under a fixed
// address map. Compiled streams are shared by all cursors (so RRS re-runs
// and repeated experiments stay cheap).
type Generator struct {
	am      layout.AddressMap
	streams map[*prog.ProcessSpec]*Stream
	rles    map[*prog.ProcessSpec]*RLEStream
}

// NewGenerator builds a generator over the address map.
func NewGenerator(am layout.AddressMap) *Generator {
	return &Generator{am: am, streams: make(map[*prog.ProcessSpec]*Stream)}
}

// AddressMap returns the generator's address map.
func (g *Generator) AddressMap() layout.AddressMap { return g.am }

// Stream returns the compiled stream for the spec, compiling it on first
// use.
func (g *Generator) Stream(spec *prog.ProcessSpec) (*Stream, error) {
	if s, ok := g.streams[spec]; ok {
		return s, nil
	}
	sig, keyed := addrSignature(spec, g.am)
	if keyed {
		if s, ok := streamCache.lookup(streamKey{spec, sig}); ok {
			g.streams[spec] = s
			return s, nil
		}
	}
	s, err := compile(spec, g.am)
	if err != nil {
		return nil, err
	}
	if keyed {
		s = streamCache.add(streamKey{spec, sig}, s)
	}
	g.streams[spec] = s
	return s, nil
}

// refFn is one reference's resolved addressing: its closed-form address
// formula and its per-access flag byte.
type refFn struct {
	ref  prog.Ref
	flag byte
	f    layout.AddrFormula
}

// addr resolves the reference's address at an iteration point; idxBuf is
// caller-owned scratch, returned for reuse.
func (fn *refFn) addr(pt, idxBuf []int64) (int64, []int64) {
	idxBuf = fn.ref.Map.Apply(pt, idxBuf)
	return fn.f.Addr(fn.ref.Array.LinearIndex(idxBuf)), idxBuf
}

// resolveRefFns resolves every reference of the spec once against the
// address map, packing the per-access flag byte alongside.
func resolveRefFns(spec *prog.ProcessSpec, am layout.AddressMap) ([]refFn, error) {
	fns := make([]refFn, len(spec.Refs))
	for i, ref := range spec.Refs {
		f, ok := am.CompileAddr(ref.Array)
		if !ok {
			return nil, fmt.Errorf("trace: process %s: array %s is not in the address map", spec.Name, ref.Array.Name)
		}
		fns[i] = refFn{ref: ref, f: f}
		if ref.Kind == prog.Write {
			fns[i].flag = FlagWrite
		}
		if i == 0 {
			fns[i].flag |= FlagNewIter
		}
	}
	return fns, nil
}

// compile walks the spec's iteration space once and materializes the full
// access stream under the address map.
func compile(spec *prog.ProcessSpec, am layout.AddressMap) (*Stream, error) {
	total, err := spec.Accesses()
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	s := &Stream{
		Addrs: make([]int64, 0, total),
		Flags: make([]byte, 0, total),
	}
	fns, err := resolveRefFns(spec, am)
	if err != nil {
		return nil, err
	}
	idxBuf := make([]int64, 0, 4)
	err = spec.IterSpace.Points(func(pt []int64) bool {
		for i := range fns {
			fn := &fns[i]
			var addr int64
			addr, idxBuf = fn.addr(pt, idxBuf)
			s.Addrs = append(s.Addrs, addr)
			s.Flags = append(s.Flags, fn.flag)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	return s, nil
}

// Cursor walks a process's compiled access stream: for each iteration
// point in lexicographic order, each reference in program order.
type Cursor struct {
	spec *prog.ProcessSpec
	s    *Stream
	pos  int
}

// NewCursor returns a cursor positioned at the start of the process.
func (g *Generator) NewCursor(spec *prog.ProcessSpec) (*Cursor, error) {
	s, err := g.Stream(spec)
	if err != nil {
		return nil, err
	}
	return &Cursor{spec: spec, s: s}, nil
}

// Spec returns the process being traced.
func (c *Cursor) Spec() *prog.ProcessSpec { return c.spec }

// Next returns the next access; ok is false at end of stream.
func (c *Cursor) Next() (Access, bool) {
	if c.pos >= len(c.s.Addrs) {
		return Access{}, false
	}
	f := c.s.Flags[c.pos]
	acc := Access{
		Addr:    c.s.Addrs[c.pos],
		Write:   f&FlagWrite != 0,
		NewIter: f&FlagNewIter != 0,
	}
	c.pos++
	return acc, true
}

// StreamAt returns the compiled stream slices and the cursor's current
// position, for batched execution: callers consume addrs[pos:] directly
// and commit progress with Skip.
func (c *Cursor) StreamAt() (addrs []int64, flags []byte, pos int) {
	return c.s.Addrs, c.s.Flags, c.pos
}

// Skip advances the cursor by n accesses (clamped to the stream end).
func (c *Cursor) Skip(n int) {
	c.pos += n
	if c.pos > len(c.s.Addrs) {
		c.pos = len(c.s.Addrs)
	}
}

// Done reports whether the stream is exhausted.
func (c *Cursor) Done() bool { return c.pos >= len(c.s.Addrs) }

// Remaining returns the number of accesses left in the stream.
func (c *Cursor) Remaining() int64 { return int64(len(c.s.Addrs) - c.pos) }

// Total returns the total number of accesses in the full stream.
func (c *Cursor) Total() int64 { return int64(len(c.s.Addrs)) }

// Reset rewinds the cursor to the start of the stream.
func (c *Cursor) Reset() { c.pos = 0 }

// InterpCursor is the reference implementation the compiled stream is
// checked against: it interprets the spec access by access — affine map
// application, row-major linearization, AddressMap dispatch — exactly as
// the pre-compilation simulator did. It exists for differential testing
// and for address maps whose cost model makes materialization
// undesirable; the simulator itself always runs compiled streams.
type InterpCursor struct {
	am     layout.AddressMap
	spec   *prog.ProcessSpec
	points [][]int64
	ptIdx  int
	refIdx int
	idxBuf []int64
}

// NewInterpCursor returns an interpreting cursor at the start of the
// process's stream.
func (g *Generator) NewInterpCursor(spec *prog.ProcessSpec) (*InterpCursor, error) {
	n, err := spec.Iterations()
	if err != nil {
		return nil, err
	}
	pts := make([][]int64, 0, n)
	err = spec.IterSpace.Points(func(pt []int64) bool {
		pts = append(pts, append([]int64(nil), pt...))
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	return &InterpCursor{am: g.am, spec: spec, points: pts}, nil
}

// Next returns the next access; ok is false at end of stream.
func (c *InterpCursor) Next() (Access, bool) {
	if c.ptIdx >= len(c.points) {
		return Access{}, false
	}
	ref := c.spec.Refs[c.refIdx]
	pt := c.points[c.ptIdx]
	c.idxBuf = ref.Map.Apply(pt, c.idxBuf)
	lin := ref.Array.LinearIndex(c.idxBuf)
	acc := Access{
		Addr:    c.am.Addr(ref.Array, lin),
		Write:   ref.Kind == prog.Write,
		NewIter: c.refIdx == 0,
	}
	c.refIdx++
	if c.refIdx == len(c.spec.Refs) {
		c.refIdx = 0
		c.ptIdx++
	}
	return acc, true
}

// Done reports whether the stream is exhausted.
func (c *InterpCursor) Done() bool { return c.ptIdx >= len(c.points) }

// Remaining returns the number of accesses left in the stream.
func (c *InterpCursor) Remaining() int64 {
	if c.Done() {
		return 0
	}
	full := int64(len(c.points)-c.ptIdx) * int64(len(c.spec.Refs))
	return full - int64(c.refIdx)
}

// Reset rewinds the cursor to the start of the stream.
func (c *InterpCursor) Reset() {
	c.ptIdx, c.refIdx = 0, 0
}
