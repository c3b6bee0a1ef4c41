package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/mpsoc"
	"locsched/internal/sharing"
	"locsched/internal/workload"
)

// lsmMappingPin is the SHA-256 of TestLSMMappingPinned's canonical
// mapping text. It changes only when the LSM data-mapping phase picks
// different banks, threshold or pressures for some workload.
const lsmMappingPin = "d07f043717851b0d304ad7af83c6a719034e5a0e7395b89db8bd71fe6093ed66"

// TestLSMMappingPinned pins the LSM mapping outputs (relaid arrays and
// their banks, threshold, before/after pressure) for every Table 1
// application alone and every cumulative Figure 7 mix on 2, 4, 8 and 16
// cores, and for the Figure 7-XL mixes on 32, 64 and 128 cores, all on
// the default machine and workload scale.
func TestLSMMappingPinned(t *testing.T) {
	params := workload.Params{Scale: 2}
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
	for _, cores := range []int{2, 4, 8, 16} {
		for _, app := range suite {
			rungs = append(rungs, rung{app.Name, []*workload.App{app}, cores})
		}
		for n := 2; n <= len(suite); n++ {
			rungs = append(rungs, rung{fmt.Sprintf("|T|=%d", n), suite[:n], cores})
		}
	}
	for _, cores := range []int{32, 64, 128} {
		apps, err := workload.BuildMany(cores/4, params)
		if err != nil {
			t.Fatal(err)
		}
		rungs = append(rungs, rung{fmt.Sprintf("xl|T|=%d", cores/4), apps, cores})
	}

	geom := mpsoc.DefaultConfig().Cache
	var text strings.Builder
	for _, r := range rungs {
		g, arrays, err := workload.Combine(r.apps...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sharing.ComputeMatrixParallel(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, err := layout.Pack(geom.BlockSize, arrays...)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := NewLSM(g, m, nil, r.cores, base, geom, nil)
		if err != nil {
			t.Fatalf("%s on %d cores: %v", r.label, r.cores, err)
		}
		var banks []string
		for a, b := range res.Banks {
			banks = append(banks, fmt.Sprintf("%s@%d", a.Name, b))
		}
		sort.Strings(banks)
		fmt.Fprintf(&text, "%s|cores=%d|T=%d|P=%d->%d|%s\n", r.label, r.cores, res.Threshold,
			res.PressureBefore, res.PressureAfter, strings.Join(banks, ","))
	}
	sum := sha256.Sum256([]byte(text.String()))
	if got := hex.EncodeToString(sum[:]); got != lsmMappingPin {
		t.Errorf("LSM mapping digest %s, pinned %s; mappings:\n%s", got, lsmMappingPin, text.String())
	}
}
