package sched

import (
	"fmt"
	"testing"

	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// assignmentsEqual fails unless both assignments place the same processes
// in the same order on every core.
func assignmentsEqual(t *testing.T, want, got *Assignment) {
	t.Helper()
	if len(want.PerCore) != len(got.PerCore) {
		t.Fatalf("core counts differ: want %d, got %d", len(want.PerCore), len(got.PerCore))
	}
	for k := range want.PerCore {
		w, g := want.PerCore[k], got.PerCore[k]
		if len(w) != len(g) {
			t.Fatalf("core %d: want %d processes %v, got %d %v", k, len(w), w, len(g), g)
		}
		for x := range w {
			if w[x] != g[x] {
				t.Fatalf("core %d position %d: want %v, got %v (full: want %v, got %v)",
					k, x, w[x], g[x], w, g)
			}
		}
	}
}

// xlMixGraph builds a generated multi-program mix EPG with its sharing
// matrix.
func xlMixGraph(t testing.TB, tasks int) (*taskgraph.Graph, *sharing.Matrix) {
	t.Helper()
	apps, err := workload.BuildMany(tasks, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sharing.ComputeMatrixParallel(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// TestLocalityScheduleMatchesRescan: the incremental LocalitySchedule is
// bit-identical to the retained full-rescan reference implementation for
// every Table 1 application, the six-app concurrent mix, and generated
// XL mixes, across core counts from fewer-cores-than-roots up to
// more-cores-than-processes.
func TestLocalityScheduleMatchesRescan(t *testing.T) {
	type tc struct {
		label string
		g     *taskgraph.Graph
		m     *sharing.Matrix
	}
	var cases []tc
	for _, name := range workload.Names() {
		app, err := workload.Build(name, 0, workload.Params{Scale: 2})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sharing.ComputeMatrixParallel(app.Graph, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name, app.Graph, m})
	}
	apps, err := workload.BuildAll(workload.Params{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	mix, _, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	mixM, err := sharing.ComputeMatrixParallel(mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"mix6", mix, mixM})
	g8, m8 := xlMixGraph(t, 8)
	cases = append(cases, tc{"xl8", g8, m8})

	for _, c := range cases {
		for _, cores := range []int{1, 2, 3, 4, 8, 16, 64, 2 * c.g.Len()} {
			t.Run(fmt.Sprintf("%s/cores=%d", c.label, cores), func(t *testing.T) {
				want, err := localityScheduleRescan(c.g, c.m, cores)
				if err != nil {
					t.Fatal(err)
				}
				got, err := LocalitySchedule(c.g, c.m, cores)
				if err != nil {
					t.Fatal(err)
				}
				assignmentsEqual(t, want, got)
			})
		}
	}
}

// TestLocalitySchedule512Cores: at the 512-core scenario point (128-task
// generated mix), the incremental scheduler still matches the rescan
// oracle exactly, and the schedule uses every core.
func TestLocalitySchedule512Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("512-core scenario mix in -short mode")
	}
	g, m := xlMixGraph(t, 128)
	const cores = 512
	want, err := localityScheduleRescan(g, m, cores)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LocalitySchedule(g, m, cores)
	if err != nil {
		t.Fatal(err)
	}
	assignmentsEqual(t, want, got)
	used := 0
	total := 0
	for _, lst := range got.PerCore {
		if len(lst) > 0 {
			used++
		}
		total += len(lst)
	}
	if total != g.Len() {
		t.Errorf("schedule places %d processes, graph has %d", total, g.Len())
	}
	if used == 0 {
		t.Error("no core received any process")
	}
}

// TestLocalityScheduleForeignMatrix: both implementations agree when the
// matrix does not cover the graph (Shared treats unknown processes as
// sharing nothing) — the incremental path must reproduce that too.
func TestLocalityScheduleForeignMatrix(t *testing.T) {
	app, err := workload.Build("Shape", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := workload.Build("Track", 7, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sharing.ComputeMatrixParallel(other.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2, 4} {
		want, err := localityScheduleRescan(app.Graph, m, cores)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LocalitySchedule(app.Graph, m, cores)
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, want, got)
	}
}
