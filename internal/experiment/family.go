package experiment

import (
	"sync"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

// Workload families. The paper's scheduler computes a workload's
// sharing once — the sharing matrix, then the LS assignment, then the
// LSM relayout — and every experiment re-runs that workload under many
// policies, parameter points and benchmark iterations. A family is one
// interned content class of workloads: the first (graph, arrays) objects
// seen for a content key (internKey) become canonical, every
// content-equal arrival — a JSON reload, a rebuilt mix — is swapped for
// them, and the family owns everything derived from those objects:
//
//   - base layouts per packing alignment, each with its
//     layoutFingerprint;
//   - the sharing matrix and the sharing.Analyzer behind it (whose data
//     spaces the LSM mapping reuses);
//   - LS assignments per (cores, machine bias);
//   - LSM mappings per (cores, machine bias, alignment, cache geometry).
//
// Because a derived result lives inside the family whose objects it was
// computed on, it can never be served to a different object family: no
// entry needs an identity check, and no cache has to clear another.
//
// One table holds the families, and one mutex guards the table, every
// family's derived maps and the counters. One budget covers families and
// derived entries together; when it is exhausted the whole table is
// dropped. A cell still running on a dropped family finishes on it, and
// whatever it inserts afterwards lives and dies with that family (the
// next intern of the same content starts a fresh one).
type family struct {
	g      *taskgraph.Graph
	arrays []*prog.Array
	gen    uint64 // the table generation the family was interned in

	// Derived results, guarded by families.Mutex. Each is computed
	// outside the lock and published first-writer-wins, so every caller
	// sees one object per key.
	bases  map[int64]*familyBase
	matrix *familyMatrix
	ls     map[lsKey]*sched.Assignment
	lsm    map[lsmKey]*sched.MappingResult
}

// familyBase is a packed base layout and its content fingerprint.
type familyBase struct {
	packed *layout.Packed
	fp     string
}

// familyMatrix is the sharing matrix and the analyzer that built it.
type familyMatrix struct {
	m  *sharing.Matrix
	an *sharing.Analyzer
}

// lsKey names an LS assignment within a family: the core count and the
// machine-bias key (see machineBias; "" is the homogeneous machine).
type lsKey struct {
	cores int
	bias  string
}

// lsmKey names an LSM mapping within a family: everything the mapping
// phase depends on beyond the EPG.
type lsmKey struct {
	lsKey
	align int64
	geom  cache.Geometry
}

var families = struct {
	sync.Mutex
	m     map[string]*family
	gen   uint64
	n     int        // families plus derived entries of generation gen
	stats CacheStats // every counter but RunnerPoolHits
}{m: make(map[string]*family)}

// maxFamilyEntries budgets the family table: families plus their derived
// entries (base layouts, matrices, LS assignments, LSM mappings). It is
// a variable only so tests can shrink it; production code must treat it
// as a constant.
var maxFamilyEntries = 256

// dropFamiliesLocked starts a fresh, empty table generation. Callers hold
// families.Mutex.
func dropFamiliesLocked() {
	families.m = make(map[string]*family)
	families.gen++
	families.n = 0
	families.stats.AnalysisEvictions++
}

// chargeLocked counts one derived entry of a generation-gen family
// against the budget, dropping the table first when the budget is
// exhausted. Only entries of the live generation count: a dropped
// family's later inserts go with it. Callers hold families.Mutex.
func chargeLocked(gen uint64) {
	if gen != families.gen {
		return
	}
	if families.n >= maxFamilyEntries {
		dropFamiliesLocked()
		return
	}
	families.n++
}

// internFamily returns the family of a (graph, arrays) pair: the one
// already interned for its content, or a new family with these objects
// as canonical. The incoming graph is frozen either way (fingerprinting
// it freezes it), so no derived result can be invalidated by mutation.
func internFamily(g *taskgraph.Graph, arrays []*prog.Array) *family {
	key := internKey(g.Content(), arrays)
	families.Lock()
	defer families.Unlock()
	if f, ok := families.m[key]; ok {
		if f.g != g {
			families.stats.InternHits++
		}
		return f
	}
	if families.n >= maxFamilyEntries {
		dropFamiliesLocked()
	}
	families.n++
	f := &family{
		g:      g,
		arrays: append([]*prog.Array(nil), arrays...),
		gen:    families.gen,
		bases:  make(map[int64]*familyBase),
		ls:     make(map[lsKey]*sched.Assignment),
		lsm:    make(map[lsmKey]*sched.MappingResult),
	}
	families.m[key] = f
	return f
}

// derive returns m[k], computing and publishing it on a miss. hits and
// misses point at the counters of m's tier (nil for an uncounted one).
// The computation runs outside the lock; if a concurrent caller
// published first, its value wins and this one is discarded.
func derive[K comparable, V any](f *family, m map[K]V, k K, hits, misses *int64, compute func() (V, error)) (V, error) {
	families.Lock()
	v, ok := m[k]
	if hits != nil {
		if ok {
			*hits++
		} else {
			*misses++
		}
	}
	families.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	families.Lock()
	defer families.Unlock()
	if prior, ok := m[k]; ok {
		return prior, nil
	}
	m[k] = v
	chargeLocked(f.gen)
	return v, nil
}

// base returns the family's packed base layout under the alignment.
func (f *family) base(align int64) (*familyBase, error) {
	return derive(f, f.bases, align, nil, nil, func() (*familyBase, error) {
		p, err := layout.Pack(align, f.arrays...)
		if err != nil {
			return nil, err
		}
		return &familyBase{packed: p, fp: layoutFingerprint(p)}, nil
	})
}
