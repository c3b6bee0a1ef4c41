package trace

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/prog/progtest"
	"locsched/internal/workload"
)

// addr resolves the reference's address at an iteration point; idxBuf is
// caller-owned scratch, returned for reuse.
func (fn *refFn) addr(pt, idxBuf []int64) (int64, []int64) {
	idxBuf = fn.ref.Map.Apply(pt, idxBuf)
	return fn.f.Addr(fn.ref.Array.LinearIndex(idxBuf)), idxBuf
}

// pointCompileRLE is the enumeration oracle for compileRLE, with its own
// greedy cut: it visits every iteration point, resolves each reference's
// address there, and extends the open segment while the per-iteration
// delta vector matches the one its second iteration fixed.
func pointCompileRLE(spec *prog.ProcessSpec, am layout.AddressMap) (*RLEStream, error) {
	nrefs := len(spec.Refs)
	s := &RLEStream{nrefs: nrefs, flags: make([]byte, nrefs)}
	if nrefs == 0 {
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

	patIdx := make(map[string]int32)
	patKey := make([]byte, nrefs*8)
	intern := func(delta []int64) int32 {
		for j, d := range delta {
			binary.LittleEndian.PutUint64(patKey[j*8:], uint64(d))
		}
		if p, ok := patIdx[string(patKey)]; ok {
			return p
		}
		p := int32(len(s.pats) / nrefs)
		patIdx[string(patKey)] = p
		s.pats = append(s.pats, delta...)
		return p
	}

	var (
		idxBuf    = make([]int64, 0, 4)
		prev      = make([]int64, nrefs)
		cur       = make([]int64, nrefs)
		delta     = make([]int64, nrefs)
		segCount  int64
		segPat    = int32(-1)
		firstIter = true
	)
	closeSeg := func() {
		if segCount == 0 {
			return
		}
		if segPat < 0 {
			for j := range delta {
				delta[j] = 0
			}
			segPat = intern(delta)
		}
		s.segs = append(s.segs, rleSeg{count: segCount, pat: segPat})
		segCount, segPat = 0, -1
	}
	err = spec.IterSpace.Points(func(pt []int64) bool {
		for i := range fns {
			cur[i], idxBuf = fns[i].addr(pt, idxBuf)
		}
		switch {
		case firstIter:
			firstIter = false
			s.starts = append(s.starts, cur...)
			segCount = 1
		default:
			for j := range delta {
				delta[j] = cur[j] - prev[j]
			}
			if segPat < 0 {
				segPat = intern(delta)
				segCount++
			} else if patMatches(s.pats, segPat, nrefs, delta) {
				segCount++
			} else {
				closeSeg()
				s.starts = append(s.starts, cur...)
				segCount = 1
			}
		}
		prev, cur = cur, prev
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	closeSeg()

	s.cumIters = make([]int64, len(s.segs)+1)
	for i, seg := range s.segs {
		s.cumIters[i+1] = s.cumIters[i] + seg.count
	}
	return s, nil
}

// checkRLE compiles spec under am both ways and requires identical
// encodings: flags, segments, starts, interned patterns in order and
// cumulative iteration counts, not only the decoded accesses.
func checkRLE(t *testing.T, spec *prog.ProcessSpec, am layout.AddressMap) {
	t.Helper()
	want, werr := pointCompileRLE(spec, am)
	got, gerr := compileRLE(spec, am)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("%v refs %v: error %v, oracle %v", spec.IterSpace, spec.Refs, gerr, werr)
	}
	if werr != nil {
		return
	}
	switch {
	case got.nrefs != want.nrefs || !slices.Equal(got.flags, want.flags):
		t.Fatalf("%v refs %v: flags %v, oracle %v", spec.IterSpace, spec.Refs, got.flags, want.flags)
	case !slices.Equal(got.segs, want.segs):
		t.Fatalf("%v refs %v under %v: segments %v, oracle %v", spec.IterSpace, spec.Refs, am, got.segs, want.segs)
	case !slices.Equal(got.starts, want.starts):
		t.Fatalf("%v refs %v under %v: starts %v, oracle %v", spec.IterSpace, spec.Refs, am, got.starts, want.starts)
	case !slices.Equal(got.pats, want.pats):
		t.Fatalf("%v refs %v under %v: patterns %v, oracle %v", spec.IterSpace, spec.Refs, am, got.pats, want.pats)
	case !slices.Equal(got.cumIters, want.cumIters):
		t.Fatalf("%v refs %v: cumIters %v, oracle %v", spec.IterSpace, spec.Refs, got.cumIters, want.cumIters)
	}
}

// oracleGeoms are the caches the RLE differential relays arrays out
// under: 128, 96, 24 and 15 sets, one of them with an odd block size, so
// the half page is not always a whole number of blocks or of elements.
func oracleGeoms() []cache.Geometry {
	return []cache.Geometry{
		{Size: 8 * 1024, BlockSize: 32, Assoc: 2}, // 128 sets
		{Size: 6 * 1024, BlockSize: 32, Assoc: 2}, // 96 sets
		{Size: 240, BlockSize: 5, Assoc: 2},       // 24 sets, odd block
		{Size: 480, BlockSize: 32, Assoc: 1},      // 15 sets
	}
}

// TestRLEPiecesMatchPointOracle: on seeded random specs (array ranks
// 1–3, strides −4…4, negative and wrapping offsets, 1-D, 2-D, triangular
// and empty iteration spaces) under the packed layout and random bank
// relayouts in every oracle geometry, the piecewise compile reproduces
// the point walk's encoding exactly.
func TestRLEPiecesMatchPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	geoms := oracleGeoms()
	for i := 0; i < 4000; i++ {
		spec, arrays := progtest.RandomSpec(rng)
		geom := geoms[i%len(geoms)]
		base, err := layout.Pack(geom.BlockSize, arrays...)
		if err != nil {
			t.Fatal(err)
		}
		banks := make(map[*prog.Array]int64)
		for _, a := range arrays {
			if rng.Intn(3) > 0 {
				banks[a] = int64(rng.Intn(2)) * (geom.PageSize() / 2)
			}
		}
		rl, err := layout.ApplyRelayout(base, geom, banks)
		if err != nil {
			t.Fatal(err)
		}
		checkRLE(t, spec, base)
		checkRLE(t, spec, rl)
	}
}

// TestRLEPiecesMatchPointOracleApps: the same equality for every Table 1
// application under its packed and relaid layouts.
func TestRLEPiecesMatchPointOracleApps(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		for _, am := range addressMapsUnderTest(t, app) {
			for _, p := range app.Graph.Processes() {
				checkRLE(t, p.Spec, am)
			}
		}
	}
}

// TestRLEUnknownArrayFails: a reference to an array the address map does
// not know is a compile error, not a panic.
func TestRLEUnknownArrayFails(t *testing.T) {
	a := prog.MustArray("A", 4, 100)
	other := prog.MustArray("X", 4, 100)
	iter := prog.Seg("i", 0, 10)
	spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(other, prog.Read, iter, 1, 0))
	_, err := compileRLE(spec, layout.MustPack(32, a))
	const want = "trace: process p: array X is not in the address map"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}
