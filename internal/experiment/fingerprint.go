package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// Content addressing. Workloads are identified by content, not by object
// identity, so content-equal workloads arriving as fresh objects — JSON
// reloads through LoadApps, rebuilt mixes — intern onto one family
// (family.go) and share everything derived from it:
//
//   - graph fingerprints come from taskgraph.Content: the hash of every
//     process (ID, name, iteration space, compute cost, and references —
//     kind, access map, and the referenced array's content AND its
//     aliasing structure) plus the dependence edges, computed once per
//     graph and memoized on the graph itself (Freeze semantics make the
//     memo final);
//   - internKey extends the graph fingerprint with the array list, so two
//     workloads intern together only when their arrays correspond
//     object-for-object;
//   - layoutFingerprint hashes an address map's observable behaviour:
//     each array's content and its closed-form address formula (or base
//     address for non-compilable maps) plus the mapped extent. A family
//     computes it once per base layout, for ContentKey.

// layoutFingerprint returns the content fingerprint of an address map:
// per-array content plus the closed-form address formula (or the
// element-0 address should the map not know the array), plus the total
// mapped extent.
func layoutFingerprint(am layout.AddressMap) string {
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
	return hex.EncodeToString(h.Sum(nil))
}

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
