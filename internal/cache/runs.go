package cache

// Batched entry points for run-length-encoded simulation. Both methods
// are exact: they produce the same stats, tick counter, per-line recency
// and dirty state, shadow-directory order, and replacement-RNG state as
// the equivalent sequence of AccessRW calls, which the differential
// tests in internal/trace and internal/mpsoc enforce.

// findLine returns the index into c.lines of the resident line holding
// block, or -1. It touches no stats and no recency state.
func (c *Cache) findLine(block int64) int64 {
	base := c.setIndex(block) * int64(c.assoc)
	set := c.lines[base : base+int64(c.assoc)]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return base + int64(i)
		}
	}
	return -1
}

// AccessRun simulates count consecutive references that all fall in the
// cache block containing addr (the caller guarantees this — e.g. a
// strided run with |stride|·(count−1) staying inside one block) in O(1).
// The first reference resolves through the normal per-access path and
// its classification is returned; the remaining count−1 references are
// hits by construction — the block is the most recently used line of its
// set and nothing intervenes — so they are applied in bulk: the tick
// advances by count−1, hit and access counters grow by count−1, and
// under LRU the line's recency becomes the tick of the run's last
// reference. The shadow directory needs no bulk update: re-touching the
// shadow-MRU block leaves its order unchanged.
func (c *Cache) AccessRun(addr int64, count int64, write bool) (class MissClass, wroteBack bool) {
	class, wroteBack = c.AccessRW(addr, write)
	if count > 1 {
		n := count - 1
		li := c.last
		c.tick += n
		if c.repl == LRU {
			c.lines[li].used = c.tick
		}
		c.stats.Accesses += n
		c.stats.Hits += n
	}
	return class, wroteBack
}

// TryAccessHitIters fast-forwards iters iterations of a fixed reference
// group: each iteration touches blocks[0..R-1] in order, reference j
// writing when writes[j] is set. If every block is currently resident the
// whole replay is all-hits — hits evict nothing, so residency is
// preserved inductively — and the method applies it in O(R): access and
// hit counters grow by iters·R, the tick advances likewise, each line's
// recency becomes the tick of its last touch in the final iteration, and
// write references mark their lines dirty (no evictions occur, so no
// writebacks). The shadow directory takes a single replay pass: after
// any full iteration the group's shadow order equals the order the
// previous iteration left behind. Returns true on success; if any block
// is not resident the cache is left untouched and the caller must
// simulate per access.
//
// lines[j] is a hint: the index of the line holding blocks[j] (as
// LastLine reported it when the caller last touched the block), or -1
// when unknown. A hint whose line still holds its block spares the set
// scan; any other is resolved by the scan, and lines is left holding
// every resolved index. When the shadow's most recent entries already
// are the group in touch order, the shadow replay is skipped too.
//
// blocks may contain duplicates (two references in one block); the later
// reference's recency wins, exactly as per-access simulation would have
// it.
func (c *Cache) TryAccessHitIters(blocks, lines []int64, writes []bool, iters int64) bool {
	r := len(blocks)
	if iters <= 0 || r == 0 {
		return true
	}
	for j, b := range blocks {
		if li := lines[j]; li >= 0 && c.lines[li].valid && c.lines[li].tag == b {
			continue
		}
		li := c.findLine(b)
		if li < 0 {
			return false
		}
		lines[j] = li
	}
	// With classification on, per-access simulation would move each
	// block to shadow-MRU every iteration — re-inserting, over the
	// shadow's LRU tail, a block that survived in its set but not in the
	// shadow's global LRU. After one pass the shadow holds the group's
	// most recent touches in order on top of whatever older entries still
	// fit, and a further pass re-fronts exactly those entries, evicting
	// nothing: one replay pass equals iters passes, shadow-resident
	// blocks or not. The pass cannot blindly be skipped: the caller may
	// arrive with a partially-replayed iteration's order (e.g. after a
	// process resumed mid-iteration on this core), and the bulk update
	// must end in the exact state per-access simulation would reach. It
	// can be skipped exactly when the MRU prefix already equals the
	// replay's final order (mruPrefixIs), which is the steady state of
	// consecutive spans over the same group.
	replay := c.shadow != nil && !c.shadow.mruPrefixIs(blocks)
	total := iters * int64(r)
	final := c.tick + total
	markDirty := c.write == WriteBack
	for j, li := range lines[:r] {
		ln := &c.lines[li]
		if c.repl == LRU {
			ln.used = final - int64(r-1-j)
		}
		if markDirty && writes[j] {
			ln.dirty = true
		}
	}
	if replay {
		for _, b := range blocks {
			c.shadow.access(b)
		}
	}
	c.tick = final
	c.stats.Accesses += total
	c.stats.Hits += total
	return true
}
