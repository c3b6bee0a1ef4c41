package layout

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

// chooser draws the decisions of a random layout instance, from a seeded
// generator in the randomized differential and from fuzzer bytes in
// FuzzPressure.
type chooser interface {
	intn(n int) int // uniform-ish in [0, n); n > 0
}

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

// byteChooser consumes one byte per decision below 256 outcomes and two
// above; an exhausted input keeps answering 0.
type byteChooser struct{ data []byte }

func (c *byteChooser) intn(n int) int {
	v := 0
	for k := 0; k < 2 && len(c.data) > 0; k++ {
		v = v<<8 | int(c.data[0])
		c.data = c.data[1:]
		if n <= 256 {
			break
		}
	}
	return v % n
}

// diffInstance is one randomly drawn verification problem.
type diffInstance struct {
	geom      cache.Geometry
	base      *Packed
	arrays    []*prog.Array // packed arrays, in name order
	verify    []VerifyGroup
	conflicts []Footprints
	stranger  bool // add a conflicting array the base layout lacks
	threshold int  // 0 average, 1 zero, 2 drawn
	thrDraw   int
}

// diffSets are the set counts the differential covers: powers of two,
// non-powers of two, and an odd count whose half page is not a whole
// number of blocks.
var diffSets = []int64{128, 96, 24, 15}

func drawInstance(c chooser) *diffInstance {
	sets := diffSets[c.intn(len(diffSets))]
	blocks := []int64{4, 8, 16, 32, 5} // 5: odd block, odd page with 15 sets
	bs := blocks[c.intn(len(blocks))]
	assoc := 1 + c.intn(4)
	in := &diffInstance{geom: cache.Geometry{Size: sets * bs * int64(assoc), BlockSize: bs, Assoc: assoc}}
	page := in.geom.PageSize()

	elemSizes := []int64{1, 2, 4, 8, 12, 24, 40, 3, page/2 + 1}
	n := 2 + c.intn(5)
	for i := 0; i < n; i++ {
		e := max(elemSizes[c.intn(len(elemSizes))], 1)
		limit := max(3*page/e, 2)
		elems := 1 + int64(c.intn(int(min(limit, 1200))))
		in.arrays = append(in.arrays, prog.MustArray(fmt.Sprintf("A%d", i), e, elems))
	}
	order := append([]*prog.Array(nil), in.arrays...)
	for i := len(order) - 1; i > 0; i-- {
		j := c.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	aligns := []int64{1, 3, 4, bs, page / 2, page}
	in.base = MustPack(max(aligns[c.intn(len(aligns))], 1), order...)

	footprint := func(a *prog.Array) *eset.Set {
		switch c.intn(4) {
		case 0:
			return fullSet(a)
		case 1:
			return eset.Empty()
		}
		b := eset.NewBuilder()
		for r := 1 + c.intn(4); r > 0; r-- {
			lo := int64(c.intn(int(a.Elems())))
			b.AddRange(lo, lo+1+int64(c.intn(int(a.Elems()-lo))))
		}
		return b.Build()
	}
	for g := 1 + c.intn(5); g > 0; g-- {
		vg := VerifyGroup{FP: Footprints{}, Refs: map[*prog.Array]int{}}
		for _, a := range in.arrays {
			if c.intn(3) == 0 {
				continue
			}
			vg.FP[a] = footprint(a)
			vg.Refs[a] = c.intn(5) // 0 means one stream
		}
		in.verify = append(in.verify, vg)
		in.conflicts = append(in.conflicts, vg.FP)
	}
	// A pair group shares footprint sets with the verify groups, as
	// NewLSM's successive-pair groups do.
	if len(in.conflicts) > 1 && c.intn(2) == 0 {
		in.conflicts = append(in.conflicts, in.conflicts[0].Merge(in.conflicts[1]))
	}
	in.stranger = c.intn(8) == 0
	in.threshold = c.intn(3)
	in.thrDraw = c.intn(1 << 16)
	return in
}

// check compares the interval-arithmetic code with the element-wise
// oracles on one instance and describes the first mismatch. It reports
// how many arrays the selection relaid, or -1 when both sides failed.
func (in *diffInstance) check() (int, error) {
	// Per-set block counts under base and relaid placements.
	rl, err := ApplyRelayout(in.base, in.geom, map[*prog.Array]int64{})
	pageOK := err == nil
	for gi, g := range in.verify {
		for _, a := range in.arrays {
			fp, ok := g.FP[a]
			if !ok {
				continue
			}
			f, err := formulaOf(in.base, a)
			if err != nil {
				return 0, err
			}
			if got, want := blockHistogram(f, fp, in.geom), elementCounts(a, fp, in.base, in.geom); !reflect.DeepEqual(got, want) {
				return 0, fmt.Errorf("group %d, %s packed: counts %v, element walk %v", gi, a.Name, got, want)
			}
			if !pageOK {
				continue
			}
			for _, bank := range []int64{0, in.geom.PageSize() / 2} {
				if rl, err = ApplyRelayout(in.base, in.geom, map[*prog.Array]int64{a: bank}); err != nil {
					return 0, err
				}
				f, _ := formulaOf(rl, a)
				if got, want := blockHistogram(f, fp, in.geom), elementCounts(a, fp, rl, in.geom); !reflect.DeepEqual(got, want) {
					return 0, fmt.Errorf("group %d, %s at bank %d: counts %v, element walk %v", gi, a.Name, bank, got, want)
				}
			}
		}
	}

	m, err := in.matrix()
	if err != nil {
		return 0, err
	}
	var threshold int64
	switch in.threshold {
	case 0:
		threshold = m.AverageThreshold()
	case 2:
		var top int64
		for _, a := range m.arrays {
			for _, b := range m.arrays {
				top = max(top, m.Conflict(a, b))
			}
		}
		threshold = int64(in.thrDraw) % (top + 1)
	}
	banks, before, after, err := SelectRelayoutVerified(in.verify, m, in.base, threshold, in.geom)
	wBanks, wBefore, wAfter, wErr := selectRelayoutVerifiedOracle(in.verify, m, in.base, threshold, in.geom)
	if (err != nil) != (wErr != nil) {
		return 0, fmt.Errorf("threshold %d: error %v, oracle error %v", threshold, err, wErr)
	}
	if err != nil {
		return -1, nil
	}
	if !reflect.DeepEqual(banks, wBanks) || before != wBefore || after != wAfter {
		return 0, fmt.Errorf("threshold %d: banks %s pressure %d→%d, oracle banks %s pressure %d→%d",
			threshold, bankString(banks), before, after, bankString(wBanks), wBefore, wAfter)
	}
	if len(banks) == 0 {
		return 0, nil
	}
	// Pressure over the final relaid layout, both ways.
	rl, err = ApplyRelayout(in.base, in.geom, banks)
	if err != nil {
		return 0, err
	}
	got, err := Pressure(in.verify, rl, in.geom)
	if err != nil {
		return 0, err
	}
	if want, _ := elementPressure(in.verify, rl, in.geom); got != want || got != after {
		return 0, fmt.Errorf("relaid %s: Pressure %d, element walk %d, reported after %d", bankString(banks), got, want, after)
	}
	return len(banks), nil
}

// matrix builds the instance's conflict matrix. A stranger array, absent
// from the base layout, is given the heaviest conflict with the first
// array, so selecting it must fail on both sides.
func (in *diffInstance) matrix() (*ConflictMatrix, error) {
	m, err := Conflicts(in.conflicts, in.base, in.geom)
	if err != nil || !in.stranger || len(m.arrays) == 0 {
		return m, err
	}
	z := prog.MustArray("Z", 4, 16)
	n := len(m.arrays)
	m.arrays = append(m.arrays, z)
	m.pos[z] = n
	for i := range m.vals {
		m.vals[i] = append(m.vals[i], 0)
	}
	m.vals = append(m.vals, make([]int64, n+1))
	m.vals[0][n], m.vals[n][0] = 1<<40, 1<<40
	return m, nil
}

func bankString(banks map[*prog.Array]int64) string {
	var parts []string
	for a, b := range banks {
		parts = append(parts, fmt.Sprintf("%s@%d", a.Name, b))
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// TestVerifiedSelectionMatchesOracle draws random footprints, reference
// counts, element sizes, pack alignments, thresholds and geometries and
// requires the incremental selection, Pressure and the interval block
// counts to equal their element-wise oracles.
func TestVerifiedSelectionMatchesOracle(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(16))
	accepted, failed := 0, 0
	acceptedBySets := make(map[int64]int)
	for trial := 0; trial < trials; trial++ {
		in := drawInstance(randChooser{rng})
		relaid, err := in.check()
		if err != nil {
			t.Fatalf("trial %d (%+v, %d arrays, %d groups): %v", trial, in.geom, len(in.arrays), len(in.verify), err)
		}
		switch {
		case relaid > 0:
			accepted++
			acceptedBySets[in.geom.NumSets()]++
		case relaid < 0:
			failed++
		}
	}
	t.Logf("%d instances: %d accepted a relayout (by set count %v), %d failed on both sides",
		trials, accepted, acceptedBySets, failed)
	// The draw must exercise acceptance on every geometry and the error
	// paths, not only rejection.
	for _, sets := range diffSets {
		if acceptedBySets[sets] < trials/50 {
			t.Errorf("%d sets: only %d of %d instances accepted a relayout", sets, acceptedBySets[sets], trials)
		}
	}
	if failed == 0 {
		t.Errorf("no instance of %d took an error path", trials)
	}
}

// TestBlockHistogramStraddle pins the case the interval counting must
// not drop: with 15 sets the half page is 7.5 blocks, so relaid chunks
// end mid-block and an element straddling the half-page boundary runs
// on into the other bank's half.
func TestBlockHistogramStraddle(t *testing.T) {
	geom := cache.Geometry{Size: 15 * 16 * 2, BlockSize: 16, Assoc: 2} // C = 240, C/2 = 120
	a := prog.MustArray("S", 12, 40)                                   // 480 bytes, elements straddle blocks
	base := MustPack(1, a)
	for _, bank := range []int64{0, geom.PageSize() / 2} {
		rl, err := ApplyRelayout(base, geom, map[*prog.Array]int64{a: bank})
		if err != nil {
			t.Fatal(err)
		}
		f, _ := formulaOf(rl, a)
		for _, fp := range []*eset.Set{fullSet(a), eset.FromRuns(eset.Run{Lo: 9, Hi: 11}, eset.Run{Lo: 19, Hi: 31})} {
			if got, want := blockHistogram(f, fp, geom), elementCounts(a, fp, rl, geom); !reflect.DeepEqual(got, want) {
				t.Errorf("bank %d, fp %v: counts %v, element walk %v", bank, fp, got, want)
			}
		}
	}
}
