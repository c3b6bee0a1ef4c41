package sched

import (
	"reflect"
	"testing"

	"locsched/internal/sharing"
	"locsched/internal/workload"
)

// TestCoreOrder pins the placement-preference ordering: nil bias is the
// identity, a bias sorts ascending, and ties stay in index order.
func TestCoreOrder(t *testing.T) {
	if got := coreOrder(4, nil); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("coreOrder(4, nil) = %v, want identity", got)
	}
	costs := []int64{30, 10, 20, 10}
	got := coreOrder(4, func(c int) int64 { return costs[c] })
	if want := []int{1, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("coreOrder = %v, want %v (ascending cost, stable ties)", got, want)
	}
}

// TestLocalityScheduleBiasedNilIdentity: a nil bias must be exactly
// LocalitySchedule on a real application graph — the homogeneous half
// of the machine-model contract at the scheduler layer.
func TestLocalityScheduleBiasedNilIdentity(t *testing.T) {
	app, err := workload.Build("Med-Im04", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sharing.ComputeMatrixParallel(app.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LocalitySchedule(app.Graph, m, 8)
	if err != nil {
		t.Fatal(err)
	}
	biased, err := LocalityScheduleBiased(app.Graph, m, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, biased) {
		t.Errorf("nil bias diverges from LocalitySchedule:\nplain:  %+v\nbiased: %+v", plain, biased)
	}
}

// TestLocalityScheduleBiasedPermutes: a strict (injective) bias must
// relabel the unbiased schedule's per-core lists onto the preference
// order without changing their contents — the schedule structure (which
// processes run consecutively) is machine-independent; only the
// physical placement shifts toward preferred cores.
func TestLocalityScheduleBiasedPermutes(t *testing.T) {
	app, err := workload.Build("Radar", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sharing.ComputeMatrixParallel(app.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	const cores = 8
	plain, err := LocalitySchedule(app.Graph, m, cores)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse preference: core 7 is the best, core 0 the worst.
	biased, err := LocalityScheduleBiased(app.Graph, m, cores, func(c int) int64 { return int64(-c) })
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cores; k++ {
		if !reflect.DeepEqual(plain.PerCore[k], biased.PerCore[cores-1-k]) {
			t.Errorf("core %d: biased core %d list differs:\nplain:  %v\nbiased: %v",
				k, cores-1-k, plain.PerCore[k], biased.PerCore[cores-1-k])
		}
	}
}

// TestAffinitySetCoreBias pins the ARR wake-hint hook: without a bias
// the hint stream is untouched, with one the machine's cores are
// yielded after the warm hints in placement-cost order, and the stop
// signal ends the iteration either way.
func TestAffinitySetCoreBias(t *testing.T) {
	mk := func() *AffinityRR {
		arr := MustAffinityRR(AffinityConfig{Quantum: 500, Window: 4})
		arr.Ready(pid(0, 0))
		arr.Ready(pid(0, 1))
		arr.SegmentDone(pid(0, 0), 2, 1000, false) // warm binding to core 2
		return arr
	}
	hints := func(arr *AffinityRR) []int {
		var got []int
		arr.AffinityHints(1100, func(core int) bool {
			got = append(got, core)
			return true
		})
		return got
	}

	plain := mk()
	if got := hints(plain); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("unbiased hints = %v, want [2]", got)
	}

	costs := []int64{5, 1, 9, 3}
	biased := mk()
	biased.SetCoreBias(4, func(c int) int64 { return costs[c] })
	if got, want := hints(biased), []int{2, 1, 3, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("biased hints = %v, want %v (warm first, then cost order)", got, want)
	}

	// Clearing the bias restores the exact pre-bias stream.
	biased.SetCoreBias(4, nil)
	if got := hints(biased); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("hints after clearing bias = %v, want [2]", got)
	}

	// Stop signal: yielding false inside the bias tail must end the walk.
	biased.SetCoreBias(4, func(c int) int64 { return costs[c] })
	calls := 0
	biased.AffinityHints(1100, func(core int) bool { calls++; return calls < 2 })
	if calls != 2 {
		t.Errorf("yield called %d times after stop, want 2", calls)
	}
}
