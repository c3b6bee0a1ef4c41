package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// Content addressing. The analysis cache, the LSM mapping cache, and the
// runner pool used to key on pointer identity of graphs, specs, arrays,
// and address maps. That works for the built-in workload builders (their
// outputs are memoized, so pointers are stable) but misses every time a
// content-equal workload arrives as fresh objects — most visibly when
// LoadApps re-reads the same JSON task set, which rebuilt every pool on
// every reload (the ROADMAP-noted bug). This file replaces identity with
// content:
//
//   - graph fingerprints come from taskgraph.Content: the hash of every
//     process (ID, name, iteration space, compute cost, and references —
//     kind, access map, and the referenced array's content AND its
//     aliasing structure) plus the dependence edges, computed once per
//     graph and memoized on the graph itself (Freeze semantics make the
//     memo final), so pool lookups never re-hash presburger strings;
//   - layoutFingerprint hashes an address map's observable behaviour:
//     each array's content and its closed-form address formula (or base
//     address for non-compilable maps) plus the mapped extent;
//   - internWorkload canonicalizes (graph, arrays) pairs: the first
//     object family seen for a fingerprint becomes canonical and every
//     content-equal arrival is swapped for it before any analysis or
//     simulation runs. Downstream caches therefore normally see one
//     object family per content class, which is what makes sharing
//     cached LSM layouts and pooled runners (both of which embed array
//     pointers) across reloads *land*; their soundness is enforced
//     independently by per-entry identity checks (cachedLSM,
//     pooledRunner), so no interleaving of interning and eviction can
//     mix object families.
//
// The layout-fingerprint memo and the intern table are bounded, and
// intern eviction wipes the dependent caches so a later canonical family
// can never mix with entries built on an earlier one.

// maxFingerprintMemo bounds the layout-fingerprint memo. Clearing it is
// harmless (fingerprints are pure functions of content).
const maxFingerprintMemo = 256

var layoutFPMemo = struct {
	sync.Mutex
	m map[layout.AddressMap]string
}{m: make(map[layout.AddressMap]string)}

// layoutFingerprint returns the (memoized) content fingerprint of an
// address map: per-array content plus the closed-form address formula
// (or the element-0 address should the map not know the array), plus
// the total mapped extent.
func layoutFingerprint(am layout.AddressMap) string {
	layoutFPMemo.Lock()
	fp, ok := layoutFPMemo.m[am]
	layoutFPMemo.Unlock()
	if ok {
		return fp
	}
	h := sha256.New()
	for i, arr := range am.Arrays() {
		taskgraph.HashArray(h, i, arr)
		if f, ok := am.CompileAddr(arr); ok {
			fmt.Fprintf(h, "f%d,%d,%d,%d;", f.Base, f.Elem, f.Page, f.Bank)
			continue
		}
		fmt.Fprintf(h, "@%d;", am.Addr(arr, 0))
	}
	fmt.Fprintf(h, "|size=%d", am.Size())
	fp = hex.EncodeToString(h.Sum(nil))
	layoutFPMemo.Lock()
	if len(layoutFPMemo.m) >= maxFingerprintMemo {
		layoutFPMemo.m = make(map[layout.AddressMap]string)
	}
	layoutFPMemo.m[am] = fp
	layoutFPMemo.Unlock()
	return fp
}

// internEntry is one canonical (graph, arrays) family.
type internEntry struct {
	g      *taskgraph.Graph
	arrays []*prog.Array
}

var workloadIntern = struct {
	sync.Mutex
	m    map[string]*internEntry
	hits int64
}{m: make(map[string]*internEntry)}

// maxInternEntries bounds the canonical-family table.
const maxInternEntries = 64

// internKey extends a graph fingerprint with the array list: each entry's
// content plus its dense index in the graph's aliasing structure (-1 for
// arrays the graph never references), so two workloads intern together
// only when their array lists correspond object-for-object.
func internKey(c *taskgraph.Content, arrays []*prog.Array) string {
	var b strings.Builder
	b.Grow(len(c.FP) + 24*len(arrays))
	b.WriteString(c.FP)
	for _, arr := range arrays {
		ai, ok := c.ArrayIndex[arr]
		if !ok {
			ai = -1
		}
		fmt.Fprintf(&b, "|%d:%s/%v/%d", ai, arr.Name, arr.Dims, arr.Elem)
	}
	return b.String()
}

// internWorkload canonicalizes a (graph, arrays) pair by content: the
// first family seen for a fingerprint is retained and returned for every
// content-equal call, so every downstream cache — base-layout packing,
// the analysis tiers, the runner pool — keys on one object family per
// content class. The incoming graph is frozen either way (its structure
// has been analyzed, if only to fingerprint it). When the intern table
// overflows, the dependent caches are wiped with it as hygiene, so
// entries built on an evicted canonical family do not linger; in-flight
// cells of the old family may still insert afterwards, which is safe
// because the pointer-carrying caches validate entry identity on every
// hit (a stale-family entry reads as a miss and is replaced).
func internWorkload(g *taskgraph.Graph, arrays []*prog.Array) (*taskgraph.Graph, []*prog.Array) {
	key := internKey(g.Content(), arrays)
	workloadIntern.Lock()
	if e, ok := workloadIntern.m[key]; ok {
		if e.g != g {
			workloadIntern.hits++
		}
		workloadIntern.Unlock()
		return e.g, e.arrays
	}
	evict := len(workloadIntern.m) >= maxInternEntries
	if evict {
		workloadIntern.m = make(map[string]*internEntry)
	}
	workloadIntern.m[key] = &internEntry{g: g, arrays: append([]*prog.Array(nil), arrays...)}
	workloadIntern.Unlock()
	if evict {
		clearAnalysisCache()
		clearRunnerPool()
	}
	return g, arrays
}
