// Package cache models the per-core on-chip data caches of the simulated
// MPSoC: set-associative, with pluggable replacement, fixed geometry
// (Table 2 of the paper: 8KB, 2-way per core), and a miss classifier that
// separates conflict misses from capacity and cold misses — the quantity
// the paper's data-mapping phase (LSM) is designed to remove.
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Geometry describes a cache's shape.
type Geometry struct {
	Size      int64 // total bytes
	BlockSize int64 // line size in bytes
	Assoc     int   // ways per set
}

// Validate checks that the geometry is internally consistent.
func (g Geometry) Validate() error {
	if g.Size <= 0 || g.BlockSize <= 0 || g.Assoc <= 0 {
		return fmt.Errorf("cache: geometry fields must be positive: %+v", g)
	}
	if g.Size%(g.BlockSize*int64(g.Assoc)) != 0 {
		return fmt.Errorf("cache: size %d not divisible by block %d × assoc %d", g.Size, g.BlockSize, g.Assoc)
	}
	return nil
}

// NumSets returns the number of sets.
func (g Geometry) NumSets() int64 { return g.Size / (g.BlockSize * int64(g.Assoc)) }

// NumLines returns the total number of lines.
func (g Geometry) NumLines() int64 { return g.Size / g.BlockSize }

// PageSize returns the paper's "cache page": cache size / associativity,
// i.e. the address span after which set indices repeat.
func (g Geometry) PageSize() int64 { return g.Size / int64(g.Assoc) }

// BlockOf returns the block (line) number containing the address.
func (g Geometry) BlockOf(addr int64) int64 { return addr / g.BlockSize }

// SetOf returns the set index of the address.
func (g Geometry) SetOf(addr int64) int64 { return (addr / g.BlockSize) % g.NumSets() }

func (g Geometry) String() string {
	return fmt.Sprintf("%dKB %d-way %dB-blocks", g.Size/1024, g.Assoc, g.BlockSize)
}

// Replacement selects the victim policy within a set.
type Replacement int

const (
	// LRU evicts the least recently used line.
	LRU Replacement = iota
	// FIFO evicts the line resident longest.
	FIFO
	// RandomRepl evicts a pseudo-random line.
	RandomRepl
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case RandomRepl:
		return "random"
	}
	return fmt.Sprintf("Replacement(%d)", int(r))
}

// MissClass classifies a miss.
type MissClass int

const (
	// Hit marks a cache hit (not a miss).
	Hit MissClass = iota
	// ColdMiss is the first-ever access to the block.
	ColdMiss
	// CapacityMiss would also have missed in a fully-associative cache of
	// equal capacity.
	CapacityMiss
	// ConflictMiss hits in the fully-associative shadow but missed in the
	// set-associative cache: limited associativity is to blame.
	ConflictMiss
)

func (m MissClass) String() string {
	switch m {
	case Hit:
		return "hit"
	case ColdMiss:
		return "cold"
	case CapacityMiss:
		return "capacity"
	case ConflictMiss:
		return "conflict"
	}
	return fmt.Sprintf("MissClass(%d)", int(m))
}

// Stats accumulates access counts.
type Stats struct {
	Accesses   int64
	Hits       int64
	Cold       int64
	Capacity   int64
	Conflict   int64
	Writebacks int64 // dirty evictions under WriteBack
}

// Misses returns the total miss count.
func (s Stats) Misses() int64 { return s.Cold + s.Capacity + s.Conflict }

// HitRate returns hits/accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Cold += o.Cold
	s.Capacity += o.Capacity
	s.Conflict += o.Conflict
	s.Writebacks += o.Writebacks
}

type line struct {
	tag   int64
	valid bool
	dirty bool
	used  int64 // last-use tick (LRU) or fill tick (FIFO)
}

// WritePolicy selects how stores interact with memory.
type WritePolicy int

const (
	// WriteThrough sends every store to memory (the default; store cost
	// is charged by the machine model, not the cache).
	WriteThrough WritePolicy = iota
	// WriteBack marks lines dirty and pays for memory only when a dirty
	// line is evicted; Stats.Writebacks counts those evictions.
	WriteBack
)

func (w WritePolicy) String() string {
	if w == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Cache is a set-associative cache with an optional fully-associative
// shadow directory for miss classification.
//
// The hot path is allocation-free in steady state: lines live in one flat
// arena, the cold-miss directory is a paged bitset (the only structure
// that grows, one page on first touch of a region), and the shadow LRU
// is an intrusive list over a preallocated node arena with a chained
// hash index sized by the line count when the cache is built.
// Power-of-two geometries under modulo indexing take a mask-based
// set-index fast path; other Indexing choices go through the pluggable
// index func.
type Cache struct {
	geom       Geometry
	repl       Replacement
	lines      []line // numSets × assoc, set s at lines[s*assoc : (s+1)*assoc]
	assoc      int
	tick       int64
	stats      Stats
	rng        *rand.Rand
	seed       int64
	shadow     *shadowLRU
	seen       *pagedBits              // blocks ever referenced, for cold-miss detection
	index      func(block int64) int64 // block → set mapping (see Indexing)
	setMask    int64                   // ≥0: set = block & setMask (pow-2 modulo fast path)
	blockShift uint                    // >0: block = addr >> blockShift (pow-2 block size)
	write      WritePolicy
	last       int64 // index into lines of the line the latest AccessRW hit or filled
}

// BlockOf returns the number of the block holding addr, by the rule
// every access uses: the shift fast path when the block size is a power
// of two.
func (c *Cache) BlockOf(addr int64) int64 {
	if c.blockShift > 0 {
		return addr >> c.blockShift
	}
	return addr / c.geom.BlockSize
}

// BlockOffset returns addr's byte offset within its block, consistent
// with BlockOf.
func (c *Cache) BlockOffset(addr int64) int64 {
	if c.blockShift > 0 {
		return addr & (c.geom.BlockSize - 1)
	}
	return addr % c.geom.BlockSize
}

// setIndex returns the set of a block via the mask fast path when the
// geometry allows it.
func (c *Cache) setIndex(block int64) int64 {
	if c.setMask >= 0 {
		return block & c.setMask
	}
	return c.index(block)
}

// Option configures a Cache.
type Option func(*Cache)

// WithReplacement selects the replacement policy (default LRU).
func WithReplacement(r Replacement) Option {
	return func(c *Cache) { c.repl = r }
}

// WithClassification enables conflict/capacity/cold miss classification
// via a fully-associative LRU shadow of equal capacity. Costs extra time
// and memory per access.
func WithClassification() Option {
	return func(c *Cache) {
		c.shadow = newShadowLRU(c.geom.NumLines())
		c.seen = &pagedBits{}
	}
}

// WithSeed seeds the RandomRepl policy (default seed 1).
func WithSeed(seed int64) Option {
	return func(c *Cache) {
		c.seed = seed
		c.rng = nil
	}
}

// WithWritePolicy selects the store policy (default WriteThrough).
func WithWritePolicy(w WritePolicy) Option {
	return func(c *Cache) { c.write = w }
}

// New builds a cache with the given geometry.
func New(geom Geometry, opts ...Option) (*Cache, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	numSets := geom.NumSets()
	c := &Cache{
		geom:  geom,
		repl:  LRU,
		lines: make([]line, numSets*int64(geom.Assoc)),
		assoc: geom.Assoc,
		seed:  1,
	}
	if geom.BlockSize&(geom.BlockSize-1) == 0 {
		for bs := geom.BlockSize; bs > 1; bs >>= 1 {
			c.blockShift++
		}
	}
	c.setIndexing(ModuloIndexing)
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// setIndexing installs the block→set mapping, enabling the mask fast
// path for power-of-two modulo geometries.
func (c *Cache) setIndexing(ix Indexing) {
	numSets := c.geom.NumSets()
	c.index = ix.indexFunc(numSets)
	if ix == ModuloIndexing && numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	} else {
		c.setMask = -1
	}
}

// MustNew is New that panics on error.
func MustNew(geom Geometry, opts ...Option) *Cache {
	c, err := New(geom, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache's shape.
func (c *Cache) Geometry() Geometry { return c.geom }

// Access simulates one read reference to addr; see AccessRW.
func (c *Cache) Access(addr int64) MissClass {
	class, _ := c.AccessRW(addr, false)
	return class
}

// AccessRW simulates one reference to addr and returns its classification
// (Hit, or the miss class; without WithClassification every miss reports
// ColdMiss on first touch of a block and CapacityMiss otherwise).
// wroteBack reports that the fill evicted a dirty line (WriteBack only).
// Steady-state calls perform no heap allocation.
func (c *Cache) AccessRW(addr int64, write bool) (class MissClass, wroteBack bool) {
	c.tick++
	c.stats.Accesses++
	block := c.BlockOf(addr)
	base := c.setIndex(block) * int64(c.assoc)
	set := c.lines[base : base+int64(c.assoc)]

	shadowHit := false
	if c.shadow != nil {
		shadowHit = c.shadow.access(block)
	}

	for i := range set {
		if set[i].valid && set[i].tag == block {
			if c.repl == LRU {
				set[i].used = c.tick
			}
			if write && c.write == WriteBack {
				set[i].dirty = true
			}
			c.stats.Hits++
			c.last = base + int64(i)
			return Hit, false
		}
	}

	// Miss: pick a victim and fill.
	victim := 0
	switch c.repl {
	case LRU, FIFO:
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
			if set[i].used < set[victim].used {
				victim = i
			}
		}
	case RandomRepl:
		victim = -1
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
		}
		if victim < 0 {
			if c.rng == nil {
				// Seeding a math/rand source is costly and only RandomRepl
				// ever draws from it, so construction and Reset defer it to
				// the first full-set random eviction.
				c.rng = rand.New(rand.NewSource(c.seed))
			}
			victim = c.rng.Intn(len(set))
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
		wroteBack = true
	}
	set[victim] = line{
		tag:   block,
		valid: true,
		used:  c.tick,
		dirty: write && c.write == WriteBack,
	}
	c.last = base + int64(victim)

	// Without WithClassification every miss is reported as capacity; with
	// it, first-touch misses are cold and shadow hits are conflicts.
	class = CapacityMiss
	if c.shadow != nil {
		firstTouch := !c.seen.testSet(block)
		switch {
		case firstTouch:
			class = ColdMiss
		case shadowHit:
			class = ConflictMiss
		}
	}
	switch class {
	case ColdMiss:
		c.stats.Cold++
	case ConflictMiss:
		c.stats.Conflict++
	default:
		c.stats.Capacity++
	}
	return class, wroteBack
}

// LastLine returns the line the latest AccessRW hit or filled, as a
// hint for TryAccessHitIters.
func (c *Cache) LastLine() int64 { return c.last }

// Contains reports whether the block holding addr is resident (without
// touching stats or recency).
func (c *Cache) Contains(addr int64) bool {
	block := c.BlockOf(addr)
	base := c.setIndex(block) * int64(c.assoc)
	set := c.lines[base : base+int64(c.assoc)]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

// Flush invalidates every line, counting dirty lines as writebacks
// (shadow state and the cold-miss directory are preserved: flushing does
// not make data "never seen").
func (c *Cache) Flush() {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			c.stats.Writebacks++
		}
		c.lines[i] = line{}
	}
	if c.shadow != nil {
		c.shadow.flush()
	}
}

// Reset restores the cache to its just-built state — empty lines, zero
// stats, reseeded replacement randomness, cleared shadow and cold-miss
// directories — while keeping the backing storage allocated, so runners
// can reuse one cache across simulations without reallocating. The one
// exception is a cold-miss directory grown wide (see pagedBits.clear).
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.tick = 0
	c.stats = Stats{}
	c.rng = nil // lazily reseeded on first random eviction
	if c.shadow != nil {
		c.shadow.flush()
		c.seen.clear()
	}
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters, keeping cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// pagedBits is a sparse bitset over block numbers: fixed-size pages
// allocated on first touch, so densely-used regions cost one allocation
// per page ever and steady-state access allocates nothing.
type pagedBits struct {
	pages [][]uint64
}

const (
	bitsPageShift = 15 // blocks per page (32768 bits = 4KB)
	bitsPageWords = 1 << (bitsPageShift - 6)
	bitsPageMask  = 1<<bitsPageShift - 1
)

// testSet sets the bit for block and reports its previous value.
func (p *pagedBits) testSet(block int64) bool {
	pg := int(block >> bitsPageShift)
	if pg >= len(p.pages) {
		p.pages = append(p.pages, make([][]uint64, pg+1-len(p.pages))...)
	}
	words := p.pages[pg]
	if words == nil {
		words = make([]uint64, bitsPageWords)
		p.pages[pg] = words
	}
	off := block & bitsPageMask
	w, bit := off>>6, uint64(1)<<(off&63)
	old := words[w]&bit != 0
	words[w] |= bit
	return old
}

// maxKeptBitsPages bounds the page table clear keeps for reuse (256
// entries cover 8M blocks, at most 1 MiB of pages).
const maxKeptBitsPages = 256

// clear empties the set. A page table of at most maxKeptBitsPages
// entries keeps its storage and is zeroed; a longer one — left by a run
// over a wide address range — is released, so a reused cache does not
// hold memory in proportion to the highest block it ever saw.
func (p *pagedBits) clear() {
	if len(p.pages) > maxKeptBitsPages {
		p.pages = nil
		return
	}
	for _, words := range p.pages {
		for i := range words {
			words[i] = 0
		}
	}
}

// shadowLRU is a fully-associative LRU directory of block numbers used to
// classify conflict vs. capacity misses (Hill & Smith's classical
// scheme). Nodes live in a preallocated arena linked intrusively by
// index; residency lookups walk one chain of a chained hash index whose
// bucket array (the next power of two ≥ 2 × capacity, so chains average
// under one node) is sized when the directory is built. The directory
// never allocates after construction, whatever the address range its
// blocks come from, and LRU order never depends on the hash.
type shadowLRU struct {
	nodes      []shadowNode // arena; capacity = len(nodes)
	used       int32        // nodes handed out so far (grows to capacity, then recycles)
	head, tail int32        // MRU / LRU, -1 when empty
	buckets    []int32      // hash chain heads, -1 when empty; len is a power of two
	shift      uint         // 64 − log2(len(buckets)): the hash keeps the top bits
}

type shadowNode struct {
	block      int64
	prev, next int32 // LRU list
	hnext      int32 // next node in the block's hash chain, -1 at its end
}

func newShadowLRU(capacity int64) *shadowLRU {
	shift := uint(bits.LeadingZeros64(uint64(2*capacity - 1))) // buckets: next 2^k ≥ 2 × capacity
	s := &shadowLRU{nodes: make([]shadowNode, capacity), buckets: make([]int32, 1<<(64-shift)), shift: shift}
	s.flush()
	return s
}

// bucket returns the hash chain head for block (Fibonacci hashing: the
// top bits of the product mix every bit of the block number).
func (s *shadowLRU) bucket(block int64) *int32 {
	return &s.buckets[uint64(block)*0x9e3779b97f4a7c15>>s.shift]
}

// find returns the node holding block (-1 if none) and its chain head.
func (s *shadowLRU) find(block int64) (int32, *int32) {
	h := s.bucket(block)
	n := *h
	for n >= 0 && s.nodes[n].block != block {
		n = s.nodes[n].hnext
	}
	return n, h
}

// mruPrefixIs reports whether the directory's most-recent entries are
// exactly blocks[R-1], …, blocks[0] — the state one access pass over a
// duplicate-free blocks slice leaves behind. A replay pass from that
// state is a provable no-op (each access re-fronts a block the previous
// accesses just pushed down by exactly its distance), which lets
// TryAccessHitIters elide the pass entirely in steady spans. Groups
// with duplicate blocks simply fail the comparison — a list node cannot
// match two positions — and fall back to the real replay.
func (s *shadowLRU) mruPrefixIs(blocks []int64) bool {
	n := s.head
	for i := len(blocks) - 1; i >= 0; i-- {
		if n < 0 || s.nodes[n].block != blocks[i] {
			return false
		}
		n = s.nodes[n].next
	}
	return true
}

// access touches block, returns whether it was resident, and makes it MRU.
func (s *shadowLRU) access(block int64) bool {
	n, h := s.find(block)
	if n >= 0 {
		if n != s.head {
			s.unlink(n)
			s.pushFront(n)
		}
		return true
	}
	if int(s.used) < len(s.nodes) {
		n = s.used
		s.used++
	} else {
		// Full: recycle the LRU tail, unhashing its old block.
		n = s.tail
		s.unlink(n)
		p := s.bucket(s.nodes[n].block)
		for *p != n {
			p = &s.nodes[*p].hnext
		}
		*p = s.nodes[n].hnext
	}
	s.nodes[n].block = block
	s.pushFront(n)
	s.nodes[n].hnext = *h
	*h = n
	return false
}

func (s *shadowLRU) flush() {
	for i := range s.buckets {
		s.buckets[i] = -1
	}
	s.head, s.tail = -1, -1
	s.used = 0
}

func (s *shadowLRU) pushFront(n int32) {
	s.nodes[n].prev = -1
	s.nodes[n].next = s.head
	if s.head >= 0 {
		s.nodes[s.head].prev = n
	}
	s.head = n
	if s.tail < 0 {
		s.tail = n
	}
}

func (s *shadowLRU) unlink(n int32) {
	prev, next := s.nodes[n].prev, s.nodes[n].next
	if prev >= 0 {
		s.nodes[prev].next = next
	} else {
		s.head = next
	}
	if next >= 0 {
		s.nodes[next].prev = prev
	} else {
		s.tail = prev
	}
	s.nodes[n].prev, s.nodes[n].next = -1, -1
}
