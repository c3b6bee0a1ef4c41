package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// rleStreamsPin is the SHA-256 of every stream TestRLEStreamsPinned
// compiles. It changes only when some stream's segmentation, start
// addresses, interned-pattern order or flags change, which the
// simulation results cannot reveal on their own.
const rleStreamsPin = "a1c9d674bcd751b8d3bc42327bd78dc0bea1f02c6ce8c99fa4dec3120294b1ff"

// hashRLE writes s's complete encoding to h.
func hashRLE(h hash.Hash, s *RLEStream) {
	w := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	w(int64(s.nrefs))
	h.Write(s.flags)
	w(int64(len(s.segs)))
	for _, seg := range s.segs {
		w(seg.count)
		w(seg.pat)
	}
	w(s.starts)
	w(int64(len(s.pats)))
	w(s.pats)
	w(s.cumIters)
}

// TestRLEStreamsPinned pins the run-length encoding of every process
// stream of every Table 1 application alone (on 8 cores) and of the
// Figure 7-XL mixes on 32, 64 and 128 cores, under the packed layout and
// under the LSM relayout, on the default machine and workload scale.
func TestRLEStreamsPinned(t *testing.T) {
	params := workload.Params{Scale: 2}
	geom := cache.Geometry{Size: 8 * 1024, BlockSize: 32, Assoc: 2} // the default machine's cache
	suite, err := workload.BuildAll(params)
	if err != nil {
		t.Fatal(err)
	}
	type rung struct {
		label string
		apps  []*workload.App
		cores int
	}
	var rungs []rung
	for _, app := range suite {
		rungs = append(rungs, rung{app.Name, []*workload.App{app}, 8})
	}
	for _, cores := range []int{32, 64, 128} {
		apps, err := workload.BuildMany(cores/4, params)
		if err != nil {
			t.Fatal(err)
		}
		rungs = append(rungs, rung{fmt.Sprintf("xl|T|=%d", cores/4), apps, cores})
	}

	h := sha256.New()
	for _, r := range rungs {
		g, arrays, err := workload.Combine(r.apps...)
		if err != nil {
			t.Fatal(err)
		}
		base, err := layout.Pack(geom.BlockSize, arrays...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sharing.ComputeMatrixParallel(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := sched.NewLSM(g, m, nil, r.cores, base, geom, nil)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		for _, am := range []layout.AddressMap{base, res.Layout} {
			hashStreams(t, h, g, am)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rleStreamsPin {
		t.Errorf("RLE streams digest %s, pinned %s", got, rleStreamsPin)
	}
}

// hashStreams hashes the RLE stream of every process of g under am.
func hashStreams(t *testing.T, h hash.Hash, g *taskgraph.Graph, am layout.AddressMap) {
	t.Helper()
	gen := NewGenerator(am)
	for _, p := range g.Processes() {
		s, err := gen.RLE(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s;", p.Spec.Name)
		hashRLE(h, s)
	}
}
