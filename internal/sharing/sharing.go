// Package sharing computes the paper's inter-process data sharing sets
// (Section 2): the data space DS_k of process k is the set of array
// elements it touches (the image of its iteration space under its access
// maps), and the sharing set between processes k and p is
// SS_k,p = DS_k ∩ DS_p. The magnitudes |SS_k,p|, weighted by element
// size, form the sharing matrix of Figure 2(a) that drives the
// locality-aware scheduler.
package sharing

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"locsched/internal/eset"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// DataSpace is the concrete footprint of one process: the set of
// linearized element indices it touches in each array.
type DataSpace map[*prog.Array]*eset.Set

// FootprintBytes returns the total footprint in bytes across all arrays.
func (d DataSpace) FootprintBytes() int64 {
	var n int64
	for arr, s := range d {
		n += s.Card() * arr.Elem
	}
	return n
}

// ComputeDataSpace collects the element indices each reference of the
// process touches, per array. It walks the iteration space one innermost
// row at a time and splits each row into the reference's affine pieces
// (prog.Ref.Piece): a constant piece adds one element and a unit-stride
// piece one range, whatever its length; any other stride adds its
// elements one by one.
func ComputeDataSpace(spec *prog.ProcessSpec) (DataSpace, error) {
	builders := make(map[*prog.Array]*eset.Builder)
	refB := make([]*eset.Builder, len(spec.Refs))
	for i, ref := range spec.Refs {
		b, ok := builders[ref.Array]
		if !ok {
			b = eset.NewBuilder()
			builders[ref.Array] = b
		}
		refB[i] = b
	}
	err := spec.IterSpace.Rows(func(pt []int64, lo, hi int64) bool {
		last := len(pt) - 1
		for i, ref := range spec.Refs {
			for x := lo; x < hi; {
				pt[last] = x
				lin, step, n := ref.Piece(pt, hi)
				addPiece(refB[i], lin, step, n)
				x += n
			}
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("sharing: process %s: %w", spec.Name, err)
	}
	ds := make(DataSpace, len(builders))
	for arr, b := range builders {
		ds[arr] = b.Build()
	}
	return ds, nil
}

// addPiece adds the elements lin + t·step, t in [0, n), to b.
func addPiece(b *eset.Builder, lin, step, n int64) {
	switch step {
	case 0:
		b.Add(lin)
	case 1:
		b.AddRange(lin, lin+n)
	case -1:
		b.AddRange(lin-n+1, lin+1)
	default:
		for t := int64(0); t < n; t++ {
			b.Add(lin + t*step)
		}
	}
}

// Analyzer memoizes data spaces per process spec so that sharing matrices
// over large EPGs, and the LSM mapping after them, reuse footprint
// computations. An Analyzer is safe for concurrent use; the blocked
// matrix construction fans data-space computation out over a worker
// pool against a shared Analyzer.
type Analyzer struct {
	mu    sync.Mutex
	cache map[*prog.ProcessSpec]DataSpace
	// sets deduplicates per-array element sets by content (iteration
	// space, access maps, array shape): generated XL mixes repeat a few
	// app templates across hundreds of tasks, and every repetition's
	// sets are value-identical even though the array objects differ.
	sets map[string]*eset.Set
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		cache: make(map[*prog.ProcessSpec]DataSpace),
		sets:  make(map[string]*eset.Set),
	}
}

// setKey describes one array's element set by content: the iteration
// space, the array's shape (dims drive LinearIndex; the element size is
// included for completeness) and every access map targeting the array,
// in reference order. Two array groups with equal keys yield
// value-identical sets, so the analyzer shares one immutable Set
// between them.
func setKey(spec *prog.ProcessSpec, arr *prog.Array) string {
	buf := spec.IterSpace.AppendKey(make([]byte, 0, 128))
	buf = binary.AppendVarint(buf, arr.Elem)
	buf = binary.AppendVarint(buf, int64(len(arr.Dims)))
	for _, d := range arr.Dims {
		buf = binary.AppendVarint(buf, d)
	}
	for _, r := range spec.Refs {
		if r.Array == arr {
			buf = r.Map.AppendKey(buf)
		}
	}
	return string(buf)
}

// DataSpace returns the (memoized) data space of the spec, sharing
// per-array element sets with previously analyzed content-equal array
// groups and computing only novel ones.
func (a *Analyzer) DataSpace(spec *prog.ProcessSpec) (DataSpace, error) {
	a.mu.Lock()
	ds, ok := a.cache[spec]
	a.mu.Unlock()
	if ok {
		return ds, nil
	}
	arrs := spec.Arrays()
	keys := make([]string, len(arrs))
	for i, arr := range arrs {
		keys[i] = setKey(spec, arr)
	}
	ds = make(DataSpace, len(arrs))
	complete := true
	a.mu.Lock()
	for i, arr := range arrs {
		if s, ok := a.sets[keys[i]]; ok {
			ds[arr] = s
		} else {
			complete = false
		}
	}
	a.mu.Unlock()
	if !complete {
		full, err := ComputeDataSpace(spec)
		if err != nil {
			return nil, err
		}
		a.mu.Lock()
		for i, arr := range arrs {
			s, ok := full[arr]
			if !ok {
				continue
			}
			// First content-equal set wins so concurrent computes converge
			// on one shared value.
			if prior, ok := a.sets[keys[i]]; ok {
				s = prior
			} else {
				a.sets[keys[i]] = s
			}
			ds[arr] = s
		}
		a.mu.Unlock()
	}
	a.mu.Lock()
	// Concurrent computes of the same spec are idempotent; first store wins
	// so every caller observes one canonical DataSpace value.
	if prior, ok := a.cache[spec]; ok {
		ds = prior
	} else {
		a.cache[spec] = ds
	}
	a.mu.Unlock()
	return ds, nil
}

// SharingSet returns the concrete sharing set SS between two processes
// for one array — the set of linearized elements both touch
// (SS_k,p = DS_k ∩ DS_p restricted to arr, Section 2 of the paper).
func (a *Analyzer) SharingSet(p, q *prog.ProcessSpec, arr *prog.Array) (*eset.Set, error) {
	dp, err := a.DataSpace(p)
	if err != nil {
		return nil, err
	}
	dq, err := a.DataSpace(q)
	if err != nil {
		return nil, err
	}
	sp, ok := dp[arr]
	if !ok {
		return eset.Empty(), nil
	}
	sq, ok := dq[arr]
	if !ok {
		return eset.Empty(), nil
	}
	return sp.Intersect(sq), nil
}

// Matrix is the sharing matrix M of the paper's Figure 2(a): for processes
// k and p, M[k][p] is the number of bytes shared between their data
// spaces. The diagonal holds each process's own footprint in bytes.
//
// M is zero between processes that touch no common array, so it is
// stored by sharing component: a component is a set of processes joined,
// directly or through other members, by arrays they both touch. Each
// component keeps one k×k block of cells; a pair in different components
// has no cell and shares 0 bytes. Components are numbered by their
// smallest matrix position and list their members in ascending position
// order.
type Matrix struct {
	ids []taskgraph.ProcID
	pos map[taskgraph.ProcID]int
	at  []slot // per position: its component and its row in cells
	// cells holds every component's block, row-major, in component order.
	cells []int64
}

// slot places one matrix position: cells[row+local'] is its sharing with
// the member of the same component at local index local'.
type slot struct {
	comp  int32 // component number
	local int32 // index inside the component
	row   int   // first cell of its row in the component's block
}

// Len returns the number of processes.
func (m *Matrix) Len() int { return len(m.ids) }

// IDs returns the process IDs in matrix order.
func (m *Matrix) IDs() []taskgraph.ProcID {
	return append([]taskgraph.ProcID(nil), m.ids...)
}

// Index returns the matrix position of a process ID in IDs() order; ok is
// false for processes the matrix does not cover. Positions feed SharedAt,
// which lets hot loops (the incremental scheduler) trade two map lookups
// per Shared call for plain slice indexing.
func (m *Matrix) Index(a taskgraph.ProcID) (int, bool) {
	i, ok := m.pos[a]
	return i, ok
}

// SharedAt returns the shared bytes between the processes at matrix
// positions i and j (the diagonal holds footprints); 0 when they lie in
// different components. Positions must come from Index.
func (m *Matrix) SharedAt(i, j int) int64 {
	a, b := m.at[i], m.at[j]
	if a.comp != b.comp {
		return 0
	}
	return m.cells[a.row+int(b.local)]
}

// Shared returns the shared bytes between two processes; 0 when either is
// unknown.
func (m *Matrix) Shared(a, b taskgraph.ProcID) int64 {
	i, ok := m.pos[a]
	if !ok {
		return 0
	}
	j, ok := m.pos[b]
	if !ok {
		return 0
	}
	return m.SharedAt(i, j)
}

// Footprint returns the process's own footprint in bytes.
func (m *Matrix) Footprint(a taskgraph.ProcID) int64 { return m.Shared(a, a) }

// String renders the matrix like the paper's Figure 2(a) table (values in
// bytes).
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "")
	for _, id := range m.ids {
		fmt.Fprintf(&b, "%10s", id.String())
	}
	b.WriteByte('\n')
	for i, id := range m.ids {
		fmt.Fprintf(&b, "%-8s", id.String())
		for j := range m.ids {
			fmt.Fprintf(&b, "%10d", m.SharedAt(i, j))
		}
		if i < len(m.ids)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
