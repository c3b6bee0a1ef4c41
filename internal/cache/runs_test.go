package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// runsTestOptions are the cache variants the batched entry points are
// differentially checked under.
func runsTestOptions() map[string][]Option {
	return map[string][]Option{
		"plain":           nil,
		"classified":      {WithClassification()},
		"classified-fifo": {WithClassification(), WithReplacement(FIFO)},
		"writeback":       {WithClassification(), WithWritePolicy(WriteBack)},
	}
}

// drain compares two caches by observable behaviour: a deterministic
// probe stream must classify identically (the probe stresses evictions,
// so diverging recency or shadow state surfaces as a different class).
func drain(t *testing.T, name string, a, b *Cache) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		addr := int64(rng.Intn(1 << 16))
		write := rng.Intn(4) == 0
		ca, wa := a.AccessRW(addr, write)
		cb, wb := b.AccessRW(addr, write)
		if ca != cb || wa != wb {
			t.Fatalf("%s: probe %d (addr %d): bulk cache says (%v,%v), per-access says (%v,%v)",
				name, i, addr, ca, wa, cb, wb)
		}
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("%s: stats diverge after probe: bulk %+v, per-access %+v", name, a.Stats(), b.Stats())
	}
}

// TestAccessRunMatchesPerAccess: AccessRun(addr, n, w) is
// indistinguishable — stats and subsequent behaviour — from n AccessRW
// calls within the same block.
func TestAccessRunMatchesPerAccess(t *testing.T) {
	geom := Geometry{Size: 1 << 10, BlockSize: 32, Assoc: 2}
	for name, opts := range runsTestOptions() {
		t.Run(name, func(t *testing.T) {
			bulk := MustNew(geom, opts...)
			ref := MustNew(geom, opts...)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 3000; i++ {
				base := int64(rng.Intn(1<<14)) &^ 31 // block-aligned
				stride := int64(rng.Intn(3) + 1)
				count := int64(rng.Intn(int(32/stride)) + 1) // stays in block
				write := rng.Intn(3) == 0
				ca, wa := bulk.AccessRun(base, count, write)
				var cb MissClass
				var wb bool
				for k := int64(0); k < count; k++ {
					ck, wk := ref.AccessRW(base+k*stride, write)
					if k == 0 {
						cb, wb = ck, wk
					} else if ck != Hit || wk {
						t.Fatalf("run access %d not a clean hit: %v %v", k, ck, wk)
					}
				}
				if ca != cb || wa != wb {
					t.Fatalf("run %d: AccessRun (%v,%v) != per-access (%v,%v)", i, ca, wa, cb, wb)
				}
			}
			drain(t, name, bulk, ref)
		})
	}
}

// TestTryAccessHitItersMatchesPerAccess: a successful fast-forward is
// indistinguishable from per-access replay of the same iterations — the
// shadow LRU's order is compared after every bulk call — under
// random interleaved traffic, mixed residency (forcing refusals),
// duplicate blocks within a group, and line hints that are right, stale
// (a later touch evicted the line), arbitrary or unknown.
func TestTryAccessHitItersMatchesPerAccess(t *testing.T) {
	geom := Geometry{Size: 1 << 10, BlockSize: 32, Assoc: 2}
	for name, opts := range runsTestOptions() {
		t.Run(name, func(t *testing.T) {
			bulk := MustNew(geom, opts...)
			ref := MustNew(geom, opts...)
			rng := rand.New(rand.NewSource(11))
			var refused, applied int
			for i := 0; i < 3000; i++ {
				// Random interleaved traffic.
				for k := rng.Intn(6); k > 0; k-- {
					addr := int64(rng.Intn(1 << 14))
					w := rng.Intn(4) == 0
					bulk.AccessRW(addr, w)
					ref.AccessRW(addr, w)
				}
				// A reference group: some blocks touched (likely resident),
				// sometimes a cold one (forcing refusal), sometimes a
				// duplicate.
				r := rng.Intn(4) + 1
				blocks := make([]int64, r)
				lines := make([]int64, r)
				writes := make([]bool, r)
				for j := range blocks {
					b := int64(rng.Intn(1 << 9))
					lines[j] = -1
					if rng.Intn(3) > 0 {
						// Touch it so it's resident on both caches.
						bulk.AccessRW(b*32, false)
						ref.AccessRW(b*32, false)
						lines[j] = bulk.LastLine()
					}
					if j > 0 && rng.Intn(5) == 0 {
						b, lines[j] = blocks[j-1], lines[j-1]
					}
					if rng.Intn(6) == 0 {
						lines[j] = int64(rng.Intn(len(bulk.lines)))
					}
					blocks[j] = b
					writes[j] = rng.Intn(3) == 0
				}
				iters := int64(rng.Intn(12) + 1)
				ok := bulk.TryAccessHitIters(blocks, lines, writes, iters)
				if ok {
					applied++
					for j, li := range lines {
						if ln := bulk.lines[li]; !ln.valid || ln.tag != blocks[j] {
							t.Fatalf("resolved line %d of block %d holds %+v", li, blocks[j], ln)
						}
					}
					for it := int64(0); it < iters; it++ {
						for j := range blocks {
							if c, _ := ref.AccessRW(blocks[j]*32, writes[j]); c != Hit {
								t.Fatalf("iteration %d ref %d: per-access replay missed (%v) where bulk fast-forwarded", it, j, c)
							}
						}
					}
				} else {
					refused++
				}
				// drain's probe flushes the 32-entry shadow before it
				// revisits a group, so the orders are compared here.
				if bulk.shadow != nil {
					if got, want := shadowOrder(t, bulk.shadow), shadowOrder(t, ref.shadow); !reflect.DeepEqual(got, want) {
						t.Fatalf("group %d (%d iterations, applied %v): shadow order\n got  %v\n want %v", i, iters, ok, got, want)
					}
				}
			}
			if applied == 0 || refused == 0 {
				t.Fatalf("degenerate coverage: %d applied, %d refused", applied, refused)
			}
			drain(t, name, bulk, ref)
		})
	}

	// Blocks still in their set but evicted from the shadow: the group
	// fills set 0 while 40 blocks of the other sets push it out of the
	// shadow's global LRU (as many entries as the cache has lines). The
	// fast-forward must apply, re-inserting the group exactly as
	// per-access replay does.
	t.Run("shadow-evicted", func(t *testing.T) {
		bulk := MustNew(geom, WithClassification())
		ref := MustNew(geom, WithClassification())
		sets := geom.NumLines() / int64(geom.Assoc)
		group := []int64{0, sets}
		for _, c := range []*Cache{bulk, ref} {
			for _, b := range group {
				c.AccessRW(b*geom.BlockSize, false)
			}
			for b, n := sets+1, 0; n < 40; b++ {
				if b%sets != 0 {
					c.AccessRW(b*geom.BlockSize, false)
					n++
				}
			}
			for _, b := range group {
				if !c.Contains(b*geom.BlockSize) || c.shadow.resident(b) {
					t.Fatalf("set-up: block %d in its set %v, in the shadow %v", b, c.Contains(b*geom.BlockSize), c.shadow.resident(b))
				}
			}
		}
		const iters = 5
		if !bulk.TryAccessHitIters(group, []int64{-1, -1}, []bool{false, true}, iters) {
			t.Fatal("fast-forward refused a group resident in its sets")
		}
		for it := 0; it < iters; it++ {
			for j, b := range group {
				if c, _ := ref.AccessRW(b*geom.BlockSize, j == 1); c != Hit {
					t.Fatalf("iteration %d: per-access replay of block %d missed (%v)", it, b, c)
				}
			}
		}
		// The probe stream soon flushes a 32-entry shadow, so the orders
		// are compared directly too.
		if got, want := shadowOrder(t, bulk.shadow), shadowOrder(t, ref.shadow); !reflect.DeepEqual(got, want) {
			t.Fatalf("shadow order after the fast-forward:\n got  %v\n want %v", got, want)
		}
		drain(t, "shadow-evicted", bulk, ref)
	})
}

// TestTryAccessHitItersRefusalUntouched: a refused fast-forward leaves
// every counter and all cache state alone.
func TestTryAccessHitItersRefusalUntouched(t *testing.T) {
	c := MustNew(Geometry{Size: 1 << 10, BlockSize: 32, Assoc: 2}, WithClassification())
	c.AccessRW(0, false)
	before := c.Stats()
	// The hint names the line holding block 0, not block 999.
	if c.TryAccessHitIters([]int64{999}, []int64{c.LastLine()}, []bool{false}, 5) {
		t.Fatal("fast-forward of a non-resident block succeeded")
	}
	if c.Stats() != before {
		t.Fatalf("refusal mutated stats: %+v -> %+v", before, c.Stats())
	}
	if !c.Contains(0) {
		t.Fatal("refusal disturbed cache contents")
	}
}

// TestBatchedEntryPointsZeroAlloc: the batched paths stay allocation-free
// in steady state, like AccessRW.
func TestBatchedEntryPointsZeroAlloc(t *testing.T) {
	c := MustNew(benchGeom(), WithClassification())
	warm(c, 64<<10)
	blocks := []int64{0, 64, 128}
	lines := []int64{-1, -1, -1}
	writes := []bool{false, true, false}
	for _, b := range blocks {
		c.AccessRW(b*32, false)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		c.AccessRun(0, 8, false)
		if !c.TryAccessHitIters(blocks, lines, writes, 4) {
			t.Fatal("group not resident")
		}
	})
	if allocs != 0 {
		t.Errorf("batched entry points allocate %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkAccessRun measures resolving an 8-access same-block run in
// one call (the per-block cost of the coalesced engine), against the
// 8×AccessRW equivalent in BenchmarkCacheAccess*.
func BenchmarkAccessRun(b *testing.B) {
	c := MustNew(benchGeom(), WithClassification())
	const span = 64 << 10
	warm(c, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRun(int64(i)*32%span, 8, false)
	}
	b.ReportMetric(8, "accesses/op")
}

// BenchmarkAccessHitIters measures fast-forwarding 8 iterations of a
// 3-reference group (24 accesses) in one call.
func BenchmarkAccessHitIters(b *testing.B) {
	c := MustNew(benchGeom(), WithClassification())
	warm(c, 64<<10)
	blocks := []int64{0, 64, 128}
	lines := make([]int64, len(blocks))
	writes := []bool{false, true, false}
	for j, blk := range blocks {
		c.AccessRW(blk*32, false)
		lines[j] = c.LastLine()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.TryAccessHitIters(blocks, lines, writes, 8) {
			b.Fatal("group not resident")
		}
	}
	b.ReportMetric(24, "accesses/op")
}
