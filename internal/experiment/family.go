package experiment

import (
	"fmt"
	"strings"
	"sync"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/mpsoc"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
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
//   - LSM mappings per (cores, machine bias, alignment, cache geometry);
//   - parked simulator runners per (address map, machine).
//
// Because a derived result lives inside the family whose objects it was
// computed on, it can never be served to a different object family: no
// entry needs an identity check, and no cache has to clear another.
//
// One table holds the families and CombineApps' mix memo, and one mutex
// guards the table, the memo, every family's derived maps and parked
// runners, and the counters. One budget covers families, derived
// entries and mix entries together; when it is exhausted the whole
// table is dropped, parked runners included. A cell still running on a
// dropped family finishes on it, and whatever analysis it inserts
// afterwards lives and dies with that family (the next intern of the
// same content starts a fresh one); its runner is not parked.
//
// This is the process's only memo table: trace streams live in the
// runners that compiled them, so dropping a family releases everything
// computed for it.
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

	// Parked runners, guarded by families.Mutex; only families of the
	// live generation hold any (see putRunner).
	runners map[runnerKey][]*mpsoc.Runner
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

// runnerKey names a parked runner within a family: the address map (a
// base layout or an LSM layout of the family) and the comparable machine
// config.
type runnerKey struct {
	am  layout.AddressMap
	cfg mpsoc.Config
}

// mixEntry is one CombineApps result: the family of the combined graph.
type mixEntry struct {
	apps []*workload.App // retained: keeps the key's pointers unique
	f    *family
}

var families = struct {
	sync.Mutex
	m      map[string]*family
	mixes  map[string]*mixEntry // CombineApps' app-set key → family
	gen    uint64
	n      int // families, derived entries and mixes of generation gen
	parked int // runners parked across the table's families
	stats  CacheStats
}{m: make(map[string]*family), mixes: make(map[string]*mixEntry)}

// maxFamilyEntries budgets the family table: families plus their derived
// entries (base layouts, matrices, LS assignments, LSM mappings) plus
// mix entries. It is a variable only so tests can shrink it; production
// code must treat it as a constant.
var maxFamilyEntries = 256

// maxPooledRunners bounds the runners parked across the table. Runners
// are cheap to rebuild, so at the bound every parked runner is released
// rather than picking victims.
const maxPooledRunners = 64

// dropFamiliesLocked starts a fresh, empty table generation, releasing
// every parked runner. Callers hold families.Mutex.
func dropFamiliesLocked() {
	unparkAllLocked()
	families.m = make(map[string]*family)
	families.mixes = make(map[string]*mixEntry)
	families.gen++
	families.n = 0
	families.stats.AnalysisEvictions++
}

// unparkAllLocked releases every parked runner. Callers hold
// families.Mutex.
func unparkAllLocked() {
	for _, f := range families.m {
		f.runners = nil
	}
	families.parked = 0
}

// chargeLocked counts one entry of a generation-gen family against the
// budget, dropping the table first when the budget is exhausted, and
// reports whether the entry joined the live generation. Only entries of
// the live generation count: a dropped family's later inserts go with
// it. Callers hold families.Mutex.
func chargeLocked(gen uint64) bool {
	if gen != families.gen {
		return false
	}
	if families.n >= maxFamilyEntries {
		dropFamiliesLocked()
		return false
	}
	families.n++
	return true
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

// takeRunner returns a runner parked on the family for the address map
// and machine, or builds one.
func (f *family) takeRunner(am layout.AddressMap, cfg mpsoc.Config) (*mpsoc.Runner, error) {
	key := runnerKey{am, cfg}
	families.Lock()
	if rs := f.runners[key]; len(rs) > 0 {
		r := rs[len(rs)-1]
		rs[len(rs)-1] = nil
		f.runners[key] = rs[:len(rs)-1]
		families.parked--
		families.stats.RunnerPoolHits++
		families.Unlock()
		return r, nil
	}
	families.Unlock()
	return mpsoc.NewRunner(f.g, am, cfg)
}

// putRunner parks a finished runner on the family for later cells. A
// dropped family parks nothing: its runners go with it.
func (f *family) putRunner(am layout.AddressMap, cfg mpsoc.Config, r *mpsoc.Runner) {
	families.Lock()
	defer families.Unlock()
	if f.gen != families.gen {
		return
	}
	if families.parked >= maxPooledRunners {
		unparkAllLocked()
	}
	if f.runners == nil {
		f.runners = make(map[runnerKey][]*mpsoc.Runner)
	}
	key := runnerKey{am, cfg}
	f.runners[key] = append(f.runners[key], r)
	families.parked++
}

// mixKey identifies an ordered application set by pointer identity.
func mixKey(apps []*workload.App) string {
	var b strings.Builder
	b.Grow(20 * len(apps))
	for _, a := range apps {
		fmt.Fprintf(&b, "%p;", a)
	}
	return b.String()
}

// CombineApps returns the merged EPG and array list for an ordered
// application set — the entry point the mix cells and the serving layer
// use to resolve mix workloads onto one family. workload.Combine is a
// pure function of its (pointer-identified) inputs, so the app set is
// memoized to the family of its merged graph, and every cell over the
// same set receives that family's canonical objects instead of
// rebuilding and re-fingerprinting them.
func CombineApps(apps []*workload.App) (*taskgraph.Graph, []*prog.Array, error) {
	key := mixKey(apps)
	families.Lock()
	e, ok := families.mixes[key]
	families.Unlock()
	if ok {
		return e.f.g, e.f.arrays, nil
	}
	epg, arrays, err := workload.Combine(apps...)
	if err != nil {
		return nil, nil, err
	}
	f := internFamily(epg, arrays)
	families.Lock()
	defer families.Unlock()
	if prior, ok := families.mixes[key]; ok {
		return prior.f.g, prior.f.arrays, nil
	}
	if chargeLocked(f.gen) {
		families.mixes[key] = &mixEntry{apps: append([]*workload.App(nil), apps...), f: f}
	}
	return f.g, f.arrays, nil
}
