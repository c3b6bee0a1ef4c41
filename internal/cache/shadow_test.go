package cache

import (
	"encoding/binary"
	"slices"
	"testing"
)

// lruOracle is the naive fully-associative LRU the hashed shadow must
// match: a slice of blocks, most recent first.
type lruOracle struct {
	capacity int
	blocks   []int64
}

// access touches b, reports whether it was resident, and makes it MRU.
func (o *lruOracle) access(b int64) bool {
	i := slices.Index(o.blocks, b)
	hit := i >= 0
	if !hit {
		if len(o.blocks) < o.capacity {
			o.blocks = append(o.blocks, 0)
		}
		i = len(o.blocks) - 1
	}
	copy(o.blocks[1:i+1], o.blocks[:i])
	o.blocks[0] = b
	return hit
}

// resident reports whether block is in the directory, without touching
// recency.
func (s *shadowLRU) resident(block int64) bool {
	n, _ := s.find(block)
	return n >= 0
}

// shadowOrder walks the shadow MRU→LRU, checking the back links agree.
func shadowOrder(t *testing.T, s *shadowLRU) []int64 {
	t.Helper()
	var fwd []int64
	for n := s.head; n >= 0; n = s.nodes[n].next {
		fwd = append(fwd, s.nodes[n].block)
		if len(fwd) > len(s.nodes) {
			t.Fatal("LRU list longer than the arena: cycle")
		}
	}
	var back []int64
	for n := s.tail; n >= 0; n = s.nodes[n].prev {
		back = append(back, s.nodes[n].block)
		if len(back) > len(s.nodes) {
			t.Fatal("LRU back links longer than the arena: cycle")
		}
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) {
		t.Fatalf("forward order %v, backward order %v", fwd, back)
	}
	return fwd
}

// checkChains checks the hash index holds exactly the oracle's blocks,
// each once and in its own bucket's chain, with walks bounded so a
// broken chain fails instead of looping.
func checkChains(t *testing.T, s *shadowLRU, want []int64) {
	t.Helper()
	var got []int64
	for i := range s.buckets {
		for n := s.buckets[i]; n >= 0; n = s.nodes[n].hnext {
			if len(got) > len(s.nodes) {
				t.Fatal("hash chains hold more nodes than the arena: cycle")
			}
			if s.bucket(s.nodes[n].block) != &s.buckets[i] {
				t.Fatalf("block %d chained in bucket %d, hashes elsewhere", s.nodes[n].block, i)
			}
			got = append(got, s.nodes[n].block)
		}
	}
	slices.Sort(got)
	want = slices.Sorted(slices.Values(want))
	if !slices.Equal(got, want) {
		t.Fatalf("hash chains hold %v, oracle %v", got, want)
	}
}

// shadowOps decodes a fuzz input into a block stream: -1 entries are
// flushes. The top two bits of each byte choose the block family —
// a small dense universe (frequent hits), blocks spread by a 2^34
// stride, a raw little-endian int64 from the next 8 bytes, or one of
// the 64 blocks of chain (all in one hash chain) — and 0xff is a flush.
func shadowOps(data []byte, chain []int64) []int64 {
	var ops []int64
	for i := 0; i < len(data); i++ {
		b := data[i]
		low := int64(b & 63)
		switch {
		case b == 0xff:
			ops = append(ops, -1)
		case b>>6 == 0:
			ops = append(ops, low)
		case b>>6 == 1:
			ops = append(ops, low<<34|low)
		case b>>6 == 2 && i+8 < len(data):
			ops = append(ops, int64(binary.LittleEndian.Uint64(data[i+1:i+9])&(1<<63-1)))
			i += 8
		default:
			ops = append(ops, chain[low])
		}
	}
	return ops
}

// FuzzShadowLRU differentially checks the hashed shadow directory
// against the naive slice LRU: after every access or flush, access's
// return, the hash chains' contents, residency, mruPrefixIs and the
// full MRU→LRU order agree.
func FuzzShadowLRU(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 1, 4, 2, 0xff, 2, 5})
	f.Add(uint8(0), []byte{0x41, 0x42, 0x41, 0xc1, 0xc2, 0xc1, 0xff, 0xc1})
	f.Add(uint8(15), []byte{0x80, 1, 0, 0, 0, 0, 0, 0, 1, 0x80, 1, 0, 0, 0, 0, 0, 0, 1, 7})
	f.Fuzz(func(t *testing.T, capByte uint8, data []byte) {
		capacity := int64(capByte%64) + 1
		s := newShadowLRU(capacity)
		o := &lruOracle{capacity: int(capacity)}
		var chain []int64
		for b := int64(0); len(chain) < 64; b++ {
			if s.bucket(b) == s.bucket(0) {
				chain = append(chain, b)
			}
		}
		var evicted []int64
		for step, b := range shadowOps(data, chain) {
			if b < 0 {
				s.flush()
				evicted = append(evicted, o.blocks...)
				o.blocks = o.blocks[:0]
			} else {
				before := slices.Clone(o.blocks)
				if got, want := s.access(b), o.access(b); got != want {
					t.Fatalf("step %d: access(%d) = %v, oracle %v", step, b, got, want)
				}
				for _, x := range before {
					if !slices.Contains(o.blocks, x) {
						evicted = append(evicted, x)
					}
				}
			}
			checkChains(t, s, o.blocks)
			if got := shadowOrder(t, s); !slices.Equal(got, o.blocks) {
				t.Fatalf("step %d: order %v, oracle %v", step, got, o.blocks)
			}
			for _, x := range o.blocks {
				if !s.resident(x) {
					t.Fatalf("step %d: %d not resident", step, x)
				}
			}
			for _, x := range evicted {
				if s.resident(x) != slices.Contains(o.blocks, x) {
					t.Fatalf("step %d: evicted %d resident=%v", step, x, s.resident(x))
				}
			}
			prefix := slices.Clone(o.blocks)
			slices.Reverse(prefix)
			if !s.mruPrefixIs(prefix) {
				t.Fatalf("step %d: mruPrefixIs(whole order %v) = false", step, prefix)
			}
			if s.mruPrefixIs(append([]int64{0}, prefix...)) {
				t.Fatalf("step %d: mruPrefixIs accepted a prefix longer than the directory", step)
			}
			if n := len(prefix); n > 1 {
				if !s.mruPrefixIs(prefix[n-2:]) {
					t.Fatalf("step %d: mruPrefixIs(two most recent) = false", step)
				}
				prefix[n-2], prefix[n-1] = prefix[n-1], prefix[n-2]
				if s.mruPrefixIs(prefix[n-2:]) {
					t.Fatalf("step %d: mruPrefixIs accepted the two most recent blocks swapped", step)
				}
			}
		}
	})
}

// TestShadowFixedAfterWideRun: a classifying cache that touched 1<<20
// distinct blocks over a 1<<40-byte range and was then Reset holds a
// shadow exactly the size of a fresh cache's — the index is sized by
// the line count, never by the address range.
func TestShadowFixedAfterWideRun(t *testing.T) {
	// 256-byte blocks keep the cold directory's page table (one entry
	// per 32768 blocks up to the highest seen) at 3 MB.
	geom := Geometry{Size: 64 << 10, BlockSize: 256, Assoc: 2}
	c := MustNew(geom, WithClassification())
	// 256 clusters of 4096 consecutive blocks, one cluster every 1<<32
	// bytes: wide in address, compact in cold-directory pages.
	const clusters, perCluster = 256, 4096
	for k := int64(0); k < clusters; k++ {
		for i := int64(0); i < perCluster; i++ {
			c.AccessRW(k<<32+i*geom.BlockSize, false)
		}
	}
	if got := c.Stats().Cold; got != clusters*perCluster {
		t.Fatalf("cold misses = %d, want %d distinct blocks", got, clusters*perCluster)
	}
	c.Reset()
	fresh := MustNew(geom, WithClassification())
	if len(c.shadow.nodes) != len(fresh.shadow.nodes) || len(c.shadow.buckets) != len(fresh.shadow.buckets) {
		t.Errorf("shadow after wide run: %d nodes, %d buckets; fresh: %d nodes, %d buckets",
			len(c.shadow.nodes), len(c.shadow.buckets), len(fresh.shadow.nodes), len(fresh.shadow.buckets))
	}
}

// TestColdDirectoryReleasedAfterWideRun: the cold-miss directory's page
// table grows to the highest block seen; after a run over a 1<<40-byte
// range, Reset releases it (a narrow run's table is kept and zeroed),
// and the reset cache classifies first touches as cold again.
func TestColdDirectoryReleasedAfterWideRun(t *testing.T) {
	geom := Geometry{Size: 4 << 10, BlockSize: 32, Assoc: 2}
	c := MustNew(geom, WithClassification())
	c.AccessRW(0, false)
	c.AccessRW(1<<40, false)
	if n := len(c.seen.pages); n <= maxKeptBitsPages {
		t.Fatalf("wide run built a %d-entry page table; the test needs more than %d", n, maxKeptBitsPages)
	}
	c.Reset()
	if n := len(c.seen.pages); n > maxKeptBitsPages {
		t.Errorf("page table after Reset holds %d entries, want at most %d", n, maxKeptBitsPages)
	}
	c.AccessRW(1<<40, false)
	if got := c.Stats().Cold; got != 1 {
		t.Errorf("first touch after Reset: %d cold misses, want 1", got)
	}

	// A narrow run keeps its (zeroed) pages for reuse.
	c = MustNew(geom, WithClassification())
	c.AccessRW(0, false)
	page := c.seen.pages[0]
	c.Reset()
	if len(c.seen.pages) != 1 || &c.seen.pages[0][0] != &page[0] {
		t.Error("Reset dropped a narrow run's page instead of zeroing it")
	}
	c.AccessRW(0, false)
	if got := c.Stats().Cold; got != 1 {
		t.Errorf("first touch after a narrow Reset: %d cold misses, want 1", got)
	}
}
