package trace

import (
	"fmt"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

// InterpCursor is the reference implementation the compiled stream is
// checked against: it interprets the spec access by access — affine map
// application, row-major linearization, AddressMap dispatch — with no
// compilation, address formula or run-length encoding in between.
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
