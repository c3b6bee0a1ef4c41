// Package trace turns a process's static description (iteration space ×
// affine references) into the dynamic address stream the simulated cores
// execute. Cursors are resumable so that preemptive schedulers (the
// paper's RRS baseline) can stop a process mid-stream and continue it
// later, possibly on a different core.
//
// Streams are compiled per (ProcessSpec, AddressMap) pair into the
// strided run-length encoding (RLEStream), which is built from the
// affine pieces of the references' addresses rather than by visiting
// iteration points. The package holds no state of its own: a compiled
// stream lives exactly as long as the cursors over it, so a simulator
// runner's streams live and die with the runner. Reuse across runs is
// the runner's business (see the experiment package's family table,
// which parks finished runners for later cells).
package trace

import (
	"fmt"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

// Access is one memory reference of the stream.
type Access struct {
	Addr    int64
	Write   bool
	NewIter bool // first access of an iteration: charge compute cycles
}

// Flag bits of RLEStream.Flags.
const (
	// FlagWrite marks a store reference.
	FlagWrite byte = 1 << 0
	// FlagNewIter marks the first access of an iteration point.
	FlagNewIter byte = 1 << 1
)

// Generator compiles streams over process specs under a fixed address
// map. It keeps no state beyond the map: each call compiles afresh, and
// whoever holds the result (a cursor, and through it a simulator run)
// decides how long it lives.
type Generator struct {
	am layout.AddressMap
}

// NewGenerator builds a generator over the address map.
func NewGenerator(am layout.AddressMap) *Generator {
	return &Generator{am: am}
}

// AddressMap returns the generator's address map.
func (g *Generator) AddressMap() layout.AddressMap { return g.am }

// refFn is one reference's resolved addressing: its closed-form address
// formula and its per-access flag byte.
type refFn struct {
	ref  prog.Ref
	flag byte
	f    layout.AddrFormula
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
