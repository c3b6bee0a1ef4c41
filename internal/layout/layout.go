// Package layout implements the paper's data-mapping phase (Section 3,
// Figures 4 and 5): assigning arrays to memory addresses, estimating
// cache conflicts between array pairs, and re-laying out conflicting
// arrays in interleaved half-cache-page chunks so that arrays placed in
// different "banks" can never map to the same cache set.
//
// The paper's transform is
//
//	addr'(e) = 2·addr(e) − addr(e) mod (C/2) + b
//
// with C the cache page size (cache size / associativity) and b ∈ {0,
// C/2}. Writing addr(e) = q·(C/2) + r, this is addr'(e) = q·C + r + b:
// each half-page chunk q of the array lands at page q, offset r + b. We
// apply the transform to array-local offsets and give every re-laid-out
// array a fresh page-aligned region of twice its size, which preserves
// the paper's set-disjointness guarantee while keeping distinct elements
// at distinct physical addresses.
package layout

import (
	"fmt"
	"sort"
	"strings"

	"locsched/internal/cache"
	"locsched/internal/prog"
)

// AddressMap assigns a physical byte address to every array element.
// Every map states its per-array addressing in closed form
// (AddrCompiler), which the trace compiler and the conflict analyses
// evaluate arithmetically.
type AddressMap interface {
	// Addr returns the address of the element with the given row-major
	// linear index. It panics on arrays the map does not know.
	Addr(arr *prog.Array, linear int64) int64
	// Arrays lists the mapped arrays in layout order.
	Arrays() []*prog.Array
	// Size returns the total extent of the mapped region in bytes.
	Size() int64
	AddrCompiler
}

// AddrFormula is a closed-form description of Addr(arr, ·) for one array:
//
//	off     = linear × Elem
//	Page=0:  addr = Base + off                          (linear layouts)
//	Page>0:  addr = Base + (off/(Page/2))·Page + off mod (Page/2) + Bank
//
// i.e. either a plain base-plus-offset mapping or the paper's interleaved
// half-page transform. Formulas are comparable values, so two maps that
// place an array identically produce equal formulas — the property the
// trace compiler's cross-run stream cache keys on.
type AddrFormula struct {
	Base int64
	Elem int64
	Page int64 // 0 = linear; otherwise the cache-page period of the interleave
	Bank int64 // 0 or Page/2 when Page > 0
}

// Addr evaluates the formula at a linear element index.
func (f AddrFormula) Addr(linear int64) int64 {
	off := linear * f.Elem
	if f.Page == 0 {
		return f.Base + off
	}
	half := f.Page / 2
	return f.Base + (off/half)*f.Page + off%half + f.Bank
}

// AffineSteps returns how many of the n steps of an affine index piece
// lin + t·step (t in [0, n), every index non-negative) stay affine in
// address space: the largest m ≤ n with Addr(lin + t·step) =
// Addr(lin) + t·step·Elem for every t < m. Linear formulas never break;
// the interleaved one breaks where the byte offset leaves its half-page
// chunk. m ≥ 1 whenever n ≥ 1.
func (f AddrFormula) AffineSteps(lin, step, n int64) int64 {
	if f.Page == 0 || step == 0 {
		return n
	}
	half := f.Page / 2
	off, d := lin*f.Elem, step*f.Elem
	q := off / half
	var m int64
	if d > 0 {
		m = ((q+1)*half - off + d - 1) / d
	} else {
		m = (off-q*half)/(-d) + 1
	}
	return min(m, n)
}

// AddrCompiler states a map's per-array addressing in closed form, so
// the trace compiler resolves each reference once per compilation (and
// shares compiled streams across runs) instead of calling Addr per
// access.
type AddrCompiler interface {
	// CompileAddr returns the formula for arr, or ok=false when the map
	// does not know the array.
	CompileAddr(arr *prog.Array) (AddrFormula, bool)
}

// Packed lays arrays out contiguously in the order given, each aligned to
// Align bytes. This models the paper's "original memory layout"
// (Figure 4a).
type Packed struct {
	order []*prog.Array
	base  map[*prog.Array]int64
	size  int64
	align int64
}

// Pack builds a packed layout. align must be positive (use the cache
// block size to avoid accidental straddling differences between runs).
func Pack(align int64, arrays ...*prog.Array) (*Packed, error) {
	if align <= 0 {
		return nil, fmt.Errorf("layout: alignment %d must be positive", align)
	}
	p := &Packed{base: make(map[*prog.Array]int64, len(arrays)), align: align}
	var off int64
	seen := make(map[*prog.Array]bool, len(arrays))
	for _, a := range arrays {
		if a == nil {
			return nil, fmt.Errorf("layout: nil array")
		}
		if seen[a] {
			return nil, fmt.Errorf("layout: array %s packed twice", a.Name)
		}
		seen[a] = true
		off = roundUp(off, align)
		p.base[a] = off
		p.order = append(p.order, a)
		off += a.Bytes()
	}
	p.size = roundUp(off, align)
	return p, nil
}

// MustPack is Pack that panics on error.
func MustPack(align int64, arrays ...*prog.Array) *Packed {
	p, err := Pack(align, arrays...)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr implements AddressMap.
func (p *Packed) Addr(arr *prog.Array, linear int64) int64 {
	base, ok := p.base[arr]
	if !ok {
		panic(fmt.Sprintf("layout: array %s not in packed layout", arr.Name))
	}
	return base + linear*arr.Elem
}

// Base returns the base address of the array.
func (p *Packed) Base(arr *prog.Array) (int64, bool) {
	b, ok := p.base[arr]
	return b, ok
}

// CompileAddr implements AddrCompiler: packed arrays are base + off.
func (p *Packed) CompileAddr(arr *prog.Array) (AddrFormula, bool) {
	base, ok := p.base[arr]
	if !ok {
		return AddrFormula{}, false
	}
	return AddrFormula{Base: base, Elem: arr.Elem}, true
}

// Arrays implements AddressMap.
func (p *Packed) Arrays() []*prog.Array { return append([]*prog.Array(nil), p.order...) }

// Size implements AddressMap.
func (p *Packed) Size() int64 { return p.size }

// Relayouted wraps a base layout and applies the paper's interleaved
// half-page transform to a chosen subset of arrays.
type Relayouted struct {
	base    AddressMap
	pageC   int64
	banks   map[*prog.Array]int64 // b value: 0 or C/2
	newBase map[*prog.Array]int64 // page-aligned region start
	sizeTot int64
	relaid  []*prog.Array // deterministic order
}

// ApplyRelayout builds a layout in which every array in banks is moved to
// a fresh page-aligned region of twice its size and remapped with
// addr' = q·C + r + b (the paper's formula applied to array-local
// offsets). banks values must be 0 or C/2.
func ApplyRelayout(base AddressMap, geom cache.Geometry, banks map[*prog.Array]int64) (*Relayouted, error) {
	check, err := newRelayoutCheck(base, geom)
	if err != nil {
		return nil, err
	}
	c := check.page
	r := &Relayouted{
		base:    base,
		pageC:   c,
		banks:   make(map[*prog.Array]int64, len(banks)),
		newBase: make(map[*prog.Array]int64, len(banks)),
	}
	// Deterministic processing order: sort by name.
	arrs := make([]*prog.Array, 0, len(banks))
	for a := range banks {
		arrs = append(arrs, a)
	}
	sort.Slice(arrs, func(i, j int) bool { return arrs[i].Name < arrs[j].Name })
	off := roundUp(base.Size(), c)
	for _, a := range arrs {
		b := banks[a]
		if err := check.bank(a, b); err != nil {
			return nil, err
		}
		r.banks[a] = b
		r.newBase[a] = off
		r.relaid = append(r.relaid, a)
		// The transform at most doubles the extent; reserve 2× rounded to
		// whole pages.
		off += roundUp(2*a.Bytes(), c)
	}
	r.sizeTot = off
	return r, nil
}

// relayoutCheck validates bank assignments against one base layout.
type relayoutCheck struct {
	page  int64 // cache page size C
	known map[*prog.Array]bool
}

func newRelayoutCheck(base AddressMap, geom cache.Geometry) (relayoutCheck, error) {
	c := geom.PageSize()
	if c <= 0 || c%2 != 0 {
		return relayoutCheck{}, fmt.Errorf("layout: cache page size %d must be positive and even", c)
	}
	arrs := base.Arrays()
	known := make(map[*prog.Array]bool, len(arrs))
	for _, a := range arrs {
		known[a] = true
	}
	return relayoutCheck{page: c, known: known}, nil
}

// bank checks that a may be relaid out at bank b.
func (rc relayoutCheck) bank(a *prog.Array, b int64) error {
	if b != 0 && b != rc.page/2 {
		return fmt.Errorf("layout: array %s: bank %d must be 0 or C/2=%d", a.Name, b, rc.page/2)
	}
	if !rc.known[a] {
		return fmt.Errorf("layout: array %s not present in base layout", a.Name)
	}
	return nil
}

// Addr implements AddressMap.
func (r *Relayouted) Addr(arr *prog.Array, linear int64) int64 {
	b, ok := r.banks[arr]
	if !ok {
		return r.base.Addr(arr, linear)
	}
	off := linear * arr.Elem
	half := r.pageC / 2
	q := off / half
	rem := off % half
	return r.newBase[arr] + q*r.pageC + rem + b
}

// CompileAddr implements AddrCompiler: re-laid-out arrays use the
// half-page interleave from their fresh region; others fall through to
// the base layout's formula.
func (r *Relayouted) CompileAddr(arr *prog.Array) (AddrFormula, bool) {
	b, ok := r.banks[arr]
	if !ok {
		return r.base.CompileAddr(arr)
	}
	return AddrFormula{Base: r.newBase[arr], Elem: arr.Elem, Page: r.pageC, Bank: b}, true
}

// Arrays implements AddressMap.
func (r *Relayouted) Arrays() []*prog.Array { return r.base.Arrays() }

// Size implements AddressMap.
func (r *Relayouted) Size() int64 { return r.sizeTot }

// Relaid returns the re-laid-out arrays with their bank offsets.
func (r *Relayouted) Relaid() map[*prog.Array]int64 {
	out := make(map[*prog.Array]int64, len(r.banks))
	for a, b := range r.banks {
		out[a] = b
	}
	return out
}

func (r *Relayouted) String() string {
	var parts []string
	for _, a := range r.relaid {
		parts = append(parts, fmt.Sprintf("%s@b=%d", a.Name, r.banks[a]))
	}
	return "relayout{" + strings.Join(parts, " ") + "}"
}

func roundUp(v, align int64) int64 {
	if align <= 0 {
		return v
	}
	rem := v % align
	if rem == 0 {
		return v
	}
	return v + align - rem
}
