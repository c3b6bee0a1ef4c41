package layout

import (
	"math/rand"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

var testGeom = cache.Geometry{Size: 8 * 1024, BlockSize: 32, Assoc: 2} // C = 4096

func TestPack(t *testing.T) {
	a := prog.MustArray("A", 4, 100) // 400B
	b := prog.MustArray("B", 4, 100)
	p, err := Pack(32, a, b)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	ba, _ := p.Base(a)
	bb, _ := p.Base(b)
	if ba != 0 {
		t.Errorf("base(A) = %d, want 0", ba)
	}
	if bb != 416 { // 400 rounded up to 416 (align 32)
		t.Errorf("base(B) = %d, want 416", bb)
	}
	if p.Addr(a, 10) != 40 {
		t.Errorf("Addr(A,10) = %d, want 40", p.Addr(a, 10))
	}
	if p.Addr(b, 0) != 416 {
		t.Errorf("Addr(B,0) = %d, want 416", p.Addr(b, 0))
	}
	if got := p.Arrays(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Arrays = %v", got)
	}
	if p.Size()%32 != 0 {
		t.Errorf("Size %d not aligned", p.Size())
	}
}

func TestPackValidation(t *testing.T) {
	a := prog.MustArray("A", 4, 100)
	if _, err := Pack(0, a); err == nil {
		t.Error("zero alignment should fail")
	}
	if _, err := Pack(32, a, a); err == nil {
		t.Error("duplicate array should fail")
	}
	if _, err := Pack(32, nil); err == nil {
		t.Error("nil array should fail")
	}
}

func TestPackUnknownArrayPanics(t *testing.T) {
	a := prog.MustArray("A", 4, 100)
	other := prog.MustArray("X", 4, 100)
	p := MustPack(32, a)
	defer func() {
		if recover() == nil {
			t.Error("Addr of unknown array should panic")
		}
	}()
	p.Addr(other, 0)
}

func TestRelayoutFormula(t *testing.T) {
	// One array re-laid-out with b = C/2: element offsets q*(C/2)+r must
	// land at newBase + q*C + r + C/2.
	a := prog.MustArray("A", 4, 4096) // 16KB = 4 half-pages of C/2 = 2KB
	p := MustPack(32, a)
	halfC := testGeom.PageSize() / 2
	rl, err := ApplyRelayout(p, testGeom, map[*prog.Array]int64{a: halfC})
	if err != nil {
		t.Fatalf("ApplyRelayout: %v", err)
	}
	newBase := rl.Addr(a, 0) - halfC
	if newBase%testGeom.PageSize() != 0 {
		t.Errorf("region base %d not page aligned", newBase)
	}
	for _, lin := range []int64{0, 1, 511, 512, 1000, 4095} {
		off := lin * a.Elem
		q, r := off/halfC, off%halfC
		want := newBase + q*testGeom.PageSize() + r + halfC
		if got := rl.Addr(a, lin); got != want {
			t.Errorf("Addr(A,%d) = %d, want %d", lin, got, want)
		}
	}
}

func TestRelayoutBankDisjointness(t *testing.T) {
	// The paper's guarantee: arrays with different b never map to the
	// same cache set.
	a := prog.MustArray("K1", 4, 3000)
	b := prog.MustArray("K2", 4, 3000)
	p := MustPack(32, a, b)
	halfC := testGeom.PageSize() / 2
	rl, err := ApplyRelayout(p, testGeom, map[*prog.Array]int64{a: 0, b: halfC})
	if err != nil {
		t.Fatal(err)
	}
	setsA := make(map[int64]bool)
	for lin := int64(0); lin < a.Elems(); lin++ {
		setsA[testGeom.SetOf(rl.Addr(a, lin))] = true
	}
	for lin := int64(0); lin < b.Elems(); lin++ {
		if setsA[testGeom.SetOf(rl.Addr(b, lin))] {
			t.Fatalf("element %d of K2 maps to a set used by K1", lin)
		}
	}
}

func TestRelayoutAddressesStayUnique(t *testing.T) {
	// No two elements (across all arrays) may share a physical address.
	a := prog.MustArray("A", 4, 2000)
	b := prog.MustArray("B", 4, 2000)
	c := prog.MustArray("C", 4, 2000)
	p := MustPack(32, a, b, c)
	halfC := testGeom.PageSize() / 2
	rl, err := ApplyRelayout(p, testGeom, map[*prog.Array]int64{a: 0, b: halfC})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]string)
	for _, arr := range []*prog.Array{a, b, c} {
		for lin := int64(0); lin < arr.Elems(); lin++ {
			addr := rl.Addr(arr, lin)
			if who, dup := seen[addr]; dup {
				t.Fatalf("address %d claimed by both %s and %s[%d]", addr, who, arr.Name, lin)
			}
			seen[addr] = arr.Name
		}
	}
}

func TestRelayoutValidation(t *testing.T) {
	a := prog.MustArray("A", 4, 100)
	p := MustPack(32, a)
	if _, err := ApplyRelayout(p, testGeom, map[*prog.Array]int64{a: 7}); err == nil {
		t.Error("bank not in {0, C/2} should fail")
	}
	stranger := prog.MustArray("S", 4, 100)
	if _, err := ApplyRelayout(p, testGeom, map[*prog.Array]int64{stranger: 0}); err == nil {
		t.Error("array absent from base layout should fail")
	}
}

func TestApplyRelayoutErrors(t *testing.T) {
	a := prog.MustArray("A", 4, 100)
	b := prog.MustArray("B", 4, 100)
	stranger := prog.MustArray("S", 4, 100)
	p := MustPack(32, a, b)
	oddPage := cache.Geometry{Size: 15 * 5, BlockSize: 5, Assoc: 1} // C = 75
	for _, tc := range []struct {
		name  string
		geom  cache.Geometry
		banks map[*prog.Array]int64
		want  string
	}{
		{"bad bank", testGeom, map[*prog.Array]int64{a: 7}, "layout: array A: bank 7 must be 0 or C/2=2048"},
		{"unknown array", testGeom, map[*prog.Array]int64{stranger: 0}, "layout: array S not present in base layout"},
		{"first by name", testGeom, map[*prog.Array]int64{stranger: 0, b: 1}, "layout: array B: bank 1 must be 0 or C/2=2048"},
		{"odd page", oddPage, map[*prog.Array]int64{a: 0}, "layout: cache page size 75 must be positive and even"},
	} {
		_, err := ApplyRelayout(p, tc.geom, tc.banks)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRelayoutPassthrough(t *testing.T) {
	a := prog.MustArray("A", 4, 100)
	b := prog.MustArray("B", 4, 100)
	p := MustPack(32, a, b)
	rl, err := ApplyRelayout(p, testGeom, map[*prog.Array]int64{b: 0})
	if err != nil {
		t.Fatal(err)
	}
	for lin := int64(0); lin < 100; lin++ {
		if rl.Addr(a, lin) != p.Addr(a, lin) {
			t.Fatalf("non-relaid array A must keep its base addresses")
		}
	}
	if len(rl.Relaid()) != 1 {
		t.Errorf("Relaid = %v, want 1 entry", rl.Relaid())
	}
	if rl.String() == "" {
		t.Error("String should be non-empty")
	}
}

// coGroup builds one co-access group over whole arrays.
func coGroup(arrs ...*prog.Array) Footprints {
	fp := make(Footprints, len(arrs))
	for _, a := range arrs {
		fp[a] = eset.FromRuns(eset.Run{Lo: 0, Hi: a.Elems()})
	}
	return fp
}

func TestConflictMatrixTriple(t *testing.T) {
	// Three page-aligned 4KB arrays co-accessed by one process in an 8KB
	// 2-way cache: every set holds 3 blocks > 2 ways → every pair
	// accumulates min(1,1) × 128 sets. A pair alone (2 = ways) is fine.
	a := prog.MustArray("A", 4, 1024) // 4KB each
	b := prog.MustArray("B", 4, 1024)
	c := prog.MustArray("C", 4, 1024)
	p := MustPack(testGeom.PageSize(), a, b, c) // page-aligned: perfect aliasing
	m, err := Conflicts([]Footprints{coGroup(a, b, c)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*prog.Array{{a, b}, {a, c}, {b, c}} {
		if got := m.Conflict(pair[0], pair[1]); got != 128 {
			t.Errorf("Conflict(%s,%s) = %d, want 128", pair[0].Name, pair[1].Name, got)
		}
	}
	// The same three arrays co-accessed only pairwise: 2 blocks per set
	// fit in 2 ways → no conflicts.
	m2, err := Conflicts([]Footprints{coGroup(a, b), coGroup(b, c)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Conflict(a, b); got != 0 {
		t.Errorf("pairwise co-access Conflict(A,B) = %d, want 0 (fits in ways)", got)
	}
}

func TestConflictMatrixDisjointSets(t *testing.T) {
	small1 := prog.MustArray("S1", 4, 256) // 1KB: sets 0..31
	small2 := prog.MustArray("S2", 4, 256) // next KB: sets 32..63
	p := MustPack(32, small1, small2)
	m, err := Conflicts([]Footprints{coGroup(small1, small2)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Conflict(small1, small2); got != 0 {
		t.Errorf("Conflict(S1,S2) = %d, want 0 (disjoint sets)", got)
	}
}

func TestConflictMatrixDeepArrays(t *testing.T) {
	// Two 16KB arrays (4 blocks per set each) co-accessed: 8 > 2 ways →
	// min(4,4) per set × 128 sets.
	big1 := prog.MustArray("G", 4, 4096)
	big2 := prog.MustArray("H", 4, 4096)
	p := MustPack(testGeom.PageSize(), big1, big2)
	m, err := Conflicts([]Footprints{coGroup(big1, big2)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 128)
	if got := m.Conflict(big1, big2); got != want {
		t.Errorf("Conflict(G,H) = %d, want %d", got, want)
	}
	if m.Conflict(big1, big1) != 0 {
		t.Error("diagonal should be 0")
	}
	// Groups accumulate: the same group twice doubles the weight.
	m2, err := Conflicts([]Footprints{coGroup(big1, big2), coGroup(big1, big2)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Conflict(big1, big2); got != 2*want {
		t.Errorf("doubled group Conflict = %d, want %d", got, 2*want)
	}
}

func TestFootprintsMerge(t *testing.T) {
	a := prog.MustArray("A", 4, 100)
	b := prog.MustArray("B", 4, 100)
	f1 := Footprints{a: eset.FromRuns(eset.Run{Lo: 0, Hi: 50})}
	f2 := Footprints{
		a: eset.FromRuns(eset.Run{Lo: 25, Hi: 75}),
		b: eset.FromRuns(eset.Run{Lo: 0, Hi: 10}),
	}
	m := f1.Merge(f2)
	if m[a].Card() != 75 {
		t.Errorf("merged A footprint = %d, want 75", m[a].Card())
	}
	if m[b].Card() != 10 {
		t.Errorf("merged B footprint = %d, want 10", m[b].Card())
	}
	// Originals untouched.
	if f1[a].Card() != 50 {
		t.Error("Merge must not mutate its receiver")
	}
}

func TestConflictMatrixUnknownArray(t *testing.T) {
	a := prog.MustArray("A", 4, 64)
	b := prog.MustArray("B", 4, 64)
	p := MustPack(32, a, b)
	m, err := Conflicts([]Footprints{coGroup(a, b)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	other := prog.MustArray("X", 4, 64)
	if m.Conflict(a, other) != 0 {
		t.Error("unknown array should conflict 0")
	}
}

func TestAverageThreshold(t *testing.T) {
	big1 := prog.MustArray("G", 4, 4096)
	big2 := prog.MustArray("H", 4, 4096)
	small := prog.MustArray("S", 4, 8)
	p := MustPack(testGeom.PageSize(), big1, big2, small)
	m, err := Conflicts([]Footprints{coGroup(big1, big2, small)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	gh := m.Conflict(big1, big2)
	gs := m.Conflict(big1, small)
	hs := m.Conflict(big2, small)
	want := (gh + gs + hs) / 3
	if got := m.AverageThreshold(); got != want {
		t.Errorf("AverageThreshold = %d, want %d", got, want)
	}
	// Fewer than two arrays → 0.
	m1, err := Conflicts([]Footprints{coGroup(big1)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if m1.AverageThreshold() != 0 {
		t.Error("threshold of single-array matrix should be 0")
	}
}

func TestSelectRelayoutAssignsOppositeBanks(t *testing.T) {
	big1 := prog.MustArray("G", 4, 4096)
	big2 := prog.MustArray("H", 4, 4096)
	p := MustPack(testGeom.PageSize(), big1, big2)
	m, err := Conflicts([]Footprints{coGroup(big1, big2)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	banks := SelectRelayout(m, nil, 0, testGeom)
	if len(banks) != 2 {
		t.Fatalf("banks = %v, want both arrays assigned", banks)
	}
	if banks[big1] == banks[big2] {
		t.Error("conflicting arrays must get opposite banks")
	}
	halfC := testGeom.PageSize() / 2
	for a, b := range banks {
		if b != 0 && b != halfC {
			t.Errorf("bank of %s = %d, want 0 or %d", a.Name, b, halfC)
		}
	}
}

func TestSelectRelayoutRespectsRelevance(t *testing.T) {
	big1 := prog.MustArray("G", 4, 4096)
	big2 := prog.MustArray("H", 4, 4096)
	p := MustPack(testGeom.PageSize(), big1, big2)
	m, err := Conflicts([]Footprints{coGroup(big1, big2)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	banks := SelectRelayout(m, func(a, b *prog.Array) bool { return false }, 0, testGeom)
	if len(banks) != 0 {
		t.Errorf("irrelevant pairs must not be re-laid-out, got %v", banks)
	}
}

func TestSelectRelayoutThreshold(t *testing.T) {
	big1 := prog.MustArray("G", 4, 4096)
	big2 := prog.MustArray("H", 4, 4096)
	p := MustPack(testGeom.PageSize(), big1, big2)
	m, err := Conflicts([]Footprints{coGroup(big1, big2)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold above the max conflict: nothing selected.
	banks := SelectRelayout(m, nil, m.Conflict(big1, big2)+1, testGeom)
	if len(banks) != 0 {
		t.Errorf("threshold above max should select nothing, got %v", banks)
	}
}

func TestSelectRelayoutChain(t *testing.T) {
	// Three mutually conflicting arrays: the third must still receive a
	// bank opposite to its heaviest already-assigned partner.
	a := prog.MustArray("A", 4, 4096)
	b := prog.MustArray("B", 4, 4096)
	c := prog.MustArray("C", 4, 2048)
	p := MustPack(testGeom.PageSize(), a, b, c)
	m, err := Conflicts([]Footprints{coGroup(a, b, c)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	banks := SelectRelayout(m, nil, 0, testGeom)
	if len(banks) != 3 {
		t.Fatalf("banks = %v, want 3 entries", banks)
	}
	if banks[a] == banks[b] {
		t.Error("heaviest pair (A,B) must get opposite banks")
	}
}

// TestRelayoutGuaranteeRandomized property: after SelectRelayout +
// ApplyRelayout, any two arrays in different banks have disjoint cache
// sets, for random array sizes.
func TestRelayoutGuaranteeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		var arrs []*prog.Array
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			elems := int64(256 + rng.Intn(4096))
			arrs = append(arrs, prog.MustArray(string(rune('A'+i)), 4, elems))
		}
		p := MustPack(32, arrs...)
		m, err := Conflicts([]Footprints{coGroup(arrs...)}, p, testGeom)
		if err != nil {
			t.Fatal(err)
		}
		banks := SelectRelayout(m, nil, 0, testGeom)
		rl, err := ApplyRelayout(p, testGeom, banks)
		if err != nil {
			t.Fatal(err)
		}
		// Collect set usage per re-laid array.
		sets := make(map[*prog.Array]map[int64]bool)
		for a := range banks {
			s := make(map[int64]bool)
			for lin := int64(0); lin < a.Elems(); lin++ {
				s[testGeom.SetOf(rl.Addr(a, lin))] = true
			}
			sets[a] = s
		}
		for x, bx := range banks {
			for y, by := range banks {
				if x == y || bx == by {
					continue
				}
				for s := range sets[x] {
					if sets[y][s] {
						t.Fatalf("trial %d: arrays %s and %s in opposite banks share set %d",
							trial, x.Name, y.Name, s)
					}
				}
			}
		}
	}
}
