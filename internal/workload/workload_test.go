package workload

import (
	"testing"

	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

func TestNamesAndDescriptions(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("Names() returned %d entries, want 6", len(names))
	}
	want := map[string]string{
		"Med-Im04": "medical image reconstruction",
		"MxM":      "triple matrix multiplication",
		"Radar":    "radar imaging",
		"Shape":    "pattern recognition and shape analysis",
		"Track":    "visual tracking control",
		"Usonic":   "feature-based object recognition",
	}
	for _, n := range names {
		if Describe(n) != want[n] {
			t.Errorf("Describe(%s) = %q, want %q", n, Describe(n), want[n])
		}
	}
	if Describe("nope") != "" {
		t.Error("unknown app should describe as empty")
	}
}

func TestUnknownAppRejected(t *testing.T) {
	if _, err := Build("nope", 0, Params{}); err == nil {
		t.Error("unknown application should fail")
	}
}

// TestProcessCountsInPaperRange checks Table 1's constraint: process
// counts vary between 9 and 37, with Shape smallest and Usonic largest.
func TestProcessCountsInPaperRange(t *testing.T) {
	counts := map[string]int{}
	for i, name := range Names() {
		app, err := Build(name, i, Params{Scale: 1})
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		counts[name] = app.Procs()
		if app.Procs() < 9 || app.Procs() > 37 {
			t.Errorf("%s has %d processes, want within [9, 37]", name, app.Procs())
		}
	}
	if counts["Shape"] != 9 {
		t.Errorf("Shape = %d processes, want 9 (paper minimum)", counts["Shape"])
	}
	if counts["Usonic"] != 37 {
		t.Errorf("Usonic = %d processes, want 37 (paper maximum)", counts["Usonic"])
	}
}

func TestAllGraphsValid(t *testing.T) {
	apps, err := BuildAll(Params{Scale: 1})
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	if len(apps) != 6 {
		t.Fatalf("built %d apps, want 6", len(apps))
	}
	for _, a := range apps {
		if err := a.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if a.Graph.NumEdges() == 0 {
			t.Errorf("%s has no dependences; phases are missing", a.Name)
		}
		if len(a.Arrays) < 3 {
			t.Errorf("%s has %d arrays, want at least 3", a.Name, len(a.Arrays))
		}
		if a.FootprintBytes() <= 0 {
			t.Errorf("%s has no footprint", a.Name)
		}
		cp, err := a.Graph.CriticalPathLen()
		if err != nil {
			t.Fatal(err)
		}
		if cp < 2 {
			t.Errorf("%s critical path %d, want >= 2 (phased structure)", a.Name, cp)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	a1 := MustBuild("Radar", 2, Params{Scale: 1})
	a2 := MustBuild("Radar", 2, Params{Scale: 1})
	if a1.Procs() != a2.Procs() || a1.Graph.NumEdges() != a2.Graph.NumEdges() {
		t.Fatal("same build parameters must give identical structure")
	}
	ids1 := a1.Graph.ProcIDs()
	ids2 := a2.Graph.ProcIDs()
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("process IDs differ: %v vs %v", ids1[i], ids2[i])
		}
	}
	for i := range a1.Arrays {
		if a1.Arrays[i].Name != a2.Arrays[i].Name || a1.Arrays[i].Elems() != a2.Arrays[i].Elems() {
			t.Fatalf("arrays differ at %d", i)
		}
	}
}

func TestScaleGrowsFootprint(t *testing.T) {
	small := MustBuild("MxM", 0, Params{Scale: 1})
	large := MustBuild("MxM", 0, Params{Scale: 4})
	if large.FootprintBytes() != 4*small.FootprintBytes() {
		t.Errorf("scale 4 footprint = %d, want 4 × %d", large.FootprintBytes(), small.FootprintBytes())
	}
	if small.Procs() != large.Procs() {
		t.Error("scale must not change the process count")
	}
}

// TestIntraTaskSharingExists: producer→consumer pairs within each task
// must share data (this is what LS exploits, per the paper's Figure 6
// analysis of the isolated runs).
func TestIntraTaskSharingExists(t *testing.T) {
	for i, name := range Names() {
		app := MustBuild(name, i, Params{Scale: 1})
		m, err := sharing.ComputeMatrixParallel(app.Graph, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// At least one dependence edge must carry sharing.
		found := false
		for _, id := range app.Graph.ProcIDs() {
			for _, s := range app.Graph.Succs(id) {
				if m.Shared(id, s) > 0 {
					found = true
					break
				}
			}
		}
		if !found {
			t.Errorf("%s: no dependence edge carries any data sharing", name)
		}
	}
}

// TestNoInterTaskSharing: the paper's concurrent experiments rely on
// different applications not sharing any data.
func TestNoInterTaskSharing(t *testing.T) {
	apps, err := BuildAll(Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	epg, _, err := Combine(apps[0], apps[1])
	if err != nil {
		t.Fatal(err)
	}
	m, err := sharing.ComputeMatrixParallel(epg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range epg.TaskProcs(0) {
		for _, b := range epg.TaskProcs(1) {
			if m.Shared(a, b) != 0 {
				t.Fatalf("processes %v and %v of different tasks share %d bytes",
					a, b, m.Shared(a, b))
			}
		}
	}
}

func TestCombine(t *testing.T) {
	apps, err := BuildAll(Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	epg, arrays, err := Combine(apps...)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	wantProcs := 0
	wantArrays := 0
	for _, a := range apps {
		wantProcs += a.Procs()
		wantArrays += len(a.Arrays)
	}
	if epg.Len() != wantProcs {
		t.Errorf("EPG has %d processes, want %d", epg.Len(), wantProcs)
	}
	if len(arrays) != wantArrays {
		t.Errorf("Combine returned %d arrays, want %d", len(arrays), wantArrays)
	}
	if got := len(epg.Tasks()); got != 6 {
		t.Errorf("EPG has %d tasks, want 6", got)
	}
	if _, _, err := Combine(); err == nil {
		t.Error("Combine of nothing should fail")
	}
}

func TestCombineClashingTaskIDsFails(t *testing.T) {
	a := MustBuild("MxM", 0, Params{Scale: 1})
	b := MustBuild("Radar", 0, Params{Scale: 1}) // same task ID
	if _, _, err := Combine(a, b); err == nil {
		t.Error("combining apps with the same task ID should fail")
	}
}

// TestBandedSharingWithinPhase: neighbouring first-phase processes of
// Med-Im04 share halo data — the banded structure of Figure 2(a).
func TestBandedSharingWithinPhase(t *testing.T) {
	app := MustBuild("Med-Im04", 0, Params{Scale: 1})
	m, err := sharing.ComputeMatrixParallel(app.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Filter processes are indices 8..15 (after the 8 backprojections).
	f := func(i int) taskgraph.ProcID { return taskgraph.ProcID{Task: 0, Idx: 8 + i} }
	near := m.Shared(f(0), f(1))
	far := m.Shared(f(0), f(4))
	if near <= far {
		t.Errorf("neighbour sharing %d should exceed distant sharing %d", near, far)
	}
	if near == 0 {
		t.Error("neighbouring filters should share halo data")
	}
}

func TestProcsHaveBoundedFootprints(t *testing.T) {
	// Per-process data must be small relative to the whole task (bands,
	// not whole arrays) so that scheduling matters; and iteration counts
	// must be modest so simulations stay fast.
	apps, err := BuildAll(Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		for _, p := range a.Graph.Processes() {
			n, err := p.Spec.Iterations()
			if err != nil {
				t.Fatal(err)
			}
			if n <= 0 || n > 1<<20 {
				t.Errorf("%s %v: %d iterations", a.Name, p.ID, n)
			}
		}
	}
}
