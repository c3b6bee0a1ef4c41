package cache

import (
	"testing"
)

func benchGeom() Geometry {
	return Geometry{Size: 8 << 10, BlockSize: 32, Assoc: 2}
}

// warm drives the address pattern once so every paged directory page the
// benchmark will touch exists before measurement.
func warm(c *Cache, span int64) {
	for addr := int64(0); addr < span; addr += 32 {
		c.Access(addr)
	}
}

// TestAccessRWZeroAlloc asserts the acceptance criterion directly:
// steady-state AccessRW allocates nothing, with and without
// classification, across replacement policies and indexing schemes,
// and a classifying cache's first touch of a block allocates only when
// it opens a new cold-directory page.
func TestAccessRWZeroAlloc(t *testing.T) {
	const span = 64 << 10
	cases := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"classified", []Option{WithClassification()}},
		{"classified-fifo", []Option{WithClassification(), WithReplacement(FIFO)}},
		{"classified-prime", []Option{WithClassification(), WithIndexing(PrimeModuloIndexing)}},
		{"writeback", []Option{WithClassification(), WithWritePolicy(WriteBack)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNew(benchGeom(), tc.opts...)
			warm(c, span)
			var addr int64
			allocs := testing.AllocsPerRun(10000, func() {
				c.AccessRW(addr%span, addr%96 == 0)
				addr += 32
			})
			if allocs != 0 {
				t.Errorf("AccessRW allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
	// First touches: each run touches eight never-seen blocks 4097
	// blocks apart, inside cold-directory pages allocated up front, so
	// only the shadow index could allocate — and it is fixed at New.
	t.Run("classified-first-touch", func(t *testing.T) {
		const runs, perRun, stride = 200, 8, 4097
		c := MustNew(benchGeom(), WithClassification())
		for b := int64(0); b <= (runs+2)*perRun*stride; b += 1 << bitsPageShift {
			c.Access(b * 32)
		}
		block := int64(1)
		allocs := testing.AllocsPerRun(runs, func() {
			for range perRun {
				c.AccessRW(block*32, false)
				block += stride
			}
		})
		if allocs != 0 {
			t.Errorf("first-touch AccessRW allocates %.1f objects/op, want 0", allocs)
		}
	})
}

// BenchmarkCacheAccessHit measures the hit path: a footprint that fits
// the cache.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := MustNew(benchGeom())
	span := benchGeom().Size // resident working set
	warm(c, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i) * 32 % span)
	}
}

// BenchmarkCacheAccessMiss measures the miss/fill path: a streaming
// footprint far beyond the cache.
func BenchmarkCacheAccessMiss(b *testing.B) {
	c := MustNew(benchGeom())
	const span = 64 << 10
	warm(c, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i) * 32 % span)
	}
}

// BenchmarkCacheAccessClassified measures the classification overhead
// (shadow LRU + cold-miss directory) on the streaming pattern.
func BenchmarkCacheAccessClassified(b *testing.B) {
	c := MustNew(benchGeom(), WithClassification())
	const span = 64 << 10
	warm(c, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i) * 32 % span)
	}
}

// BenchmarkCacheAccessClassifiedHit measures classification on the
// resident working set (shadow hit path).
func BenchmarkCacheAccessClassifiedHit(b *testing.B) {
	c := MustNew(benchGeom(), WithClassification())
	span := benchGeom().Size
	warm(c, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i) * 32 % span)
	}
}
