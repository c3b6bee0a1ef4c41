package mpsoc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"locsched/internal/workload"
)

// TestParseTopology pins the accepted names (case-insensitive, empty =
// bus), the rejections, and the String round-trip.
func TestParseTopology(t *testing.T) {
	good := map[string]Topology{
		"": TopoBus, "bus": TopoBus, "Bus": TopoBus, " BUS ": TopoBus,
		"mesh": TopoMesh, "MESH": TopoMesh, "ring": TopoRing, "Ring": TopoRing,
	}
	for in, want := range good {
		got, err := ParseTopology(in)
		if err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"torus", "hypercube", "bus,mesh", "0"} {
		if _, err := ParseTopology(in); err == nil {
			t.Errorf("ParseTopology(%q) accepted", in)
		} else if !strings.Contains(err.Error(), "bus, mesh, or ring") {
			t.Errorf("ParseTopology(%q) error %q does not name the valid options", in, err)
		}
	}
	for _, topo := range []Topology{TopoBus, TopoMesh, TopoRing} {
		rt, err := ParseTopology(topo.String())
		if err != nil || rt != topo {
			t.Errorf("ParseTopology(%v.String()) = %v, %v", topo, rt, err)
		}
	}
}

// TestParseSpeedClasses pins the spec grammar: empty = uniform [1],
// whitespace tolerated, and out-of-range or malformed entries rejected.
func TestParseSpeedClasses(t *testing.T) {
	cases := []struct {
		spec string
		want []int64
	}{
		{"", []int64{1}},
		{"  ", []int64{1}},
		{"1", []int64{1}},
		{"1,4", []int64{1, 4}},
		{" 2 , 3 , 5 ", []int64{2, 3, 5}},
		{"1024", []int64{1024}},
	}
	for _, c := range cases {
		got, err := ParseSpeedClasses(c.spec)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpeedClasses(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	for _, spec := range []string{"0", "-1", "1,0", "fast", "1,,4", "1025", "1.5", "9999999999999999999999"} {
		if _, err := ParseSpeedClasses(spec); err == nil {
			t.Errorf("ParseSpeedClasses(%q) accepted", spec)
		}
	}
	long := strings.Repeat("1,", MaxSpeedClasses) + "1"
	if _, err := ParseSpeedClasses(long); err == nil {
		t.Errorf("ParseSpeedClasses accepted %d classes (limit %d)", MaxSpeedClasses+1, MaxSpeedClasses)
	}
}

// TestMachineValidate pins the magnitude caps.
func TestMachineValidate(t *testing.T) {
	good := []Machine{
		{},
		{SpeedClasses: "1,4", Topology: TopoMesh, HopPenalty: 16},
		{Topology: TopoRing, HopPenalty: MaxHopPenalty},
	}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", m, err)
		}
	}
	bad := []Machine{
		{SpeedClasses: "0"},
		{SpeedClasses: "1,1025"},
		{Topology: Topology(99)},
		{HopPenalty: -1},
		{HopPenalty: MaxHopPenalty + 1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", m)
		}
	}
}

// TestMachineDistance pins the hop-distance formulas: zero everywhere on
// a bus, shorter-way-around on a ring, and Manhattan-from-(0,0) on the
// smallest enclosing square mesh.
func TestMachineDistance(t *testing.T) {
	bus := Machine{Topology: TopoBus, HopPenalty: 5}
	for c := 0; c < 8; c++ {
		if d := bus.Distance(c, 8); d != 0 {
			t.Errorf("bus Distance(%d, 8) = %d, want 0", c, d)
		}
	}
	ring := Machine{Topology: TopoRing}
	wantRing := []int64{0, 1, 2, 3, 4, 3, 2, 1}
	for c, want := range wantRing {
		if d := ring.Distance(c, 8); d != want {
			t.Errorf("ring Distance(%d, 8) = %d, want %d", c, d, want)
		}
	}
	// 8 cores → 3×3 mesh, row-major: core 5 is at (row 1, col 2) → 3 hops.
	mesh := Machine{Topology: TopoMesh}
	wantMesh := []int64{0, 1, 2, 1, 2, 3, 2, 3}
	for c, want := range wantMesh {
		if d := mesh.Distance(c, 8); d != want {
			t.Errorf("mesh Distance(%d, 8) = %d, want %d", c, d, want)
		}
	}
	// Perfect square: 4 cores → 2×2 mesh, far corner is 2 hops.
	if d := mesh.Distance(3, 4); d != 2 {
		t.Errorf("mesh Distance(3, 4) = %d, want 2", d)
	}
}

// TestMachineHomogeneous pins which machines degenerate to the paper's
// scalar model.
func TestMachineHomogeneous(t *testing.T) {
	homo := []Machine{
		{},
		{SpeedClasses: "1"},
		{SpeedClasses: "1,1,1"},
		{Topology: TopoMesh},                // zero hop cost
		{Topology: TopoBus, HopPenalty: 64}, // bus: all distances zero
		{SpeedClasses: "1", Topology: TopoRing},
	}
	for _, m := range homo {
		if !m.Homogeneous() {
			t.Errorf("Homogeneous(%+v) = false, want true", m)
		}
	}
	hetero := []Machine{
		{SpeedClasses: "2"},
		{SpeedClasses: "1,4"},
		{Topology: TopoMesh, HopPenalty: 1},
		{Topology: TopoRing, HopPenalty: 16},
		{SpeedClasses: "bogus"}, // invalid specs are not homogeneous; Validate rejects them
	}
	for _, m := range hetero {
		if m.Homogeneous() {
			t.Errorf("Homogeneous(%+v) = true, want false", m)
		}
	}
}

// TestCoreCostTables pins the per-core cost model on a concrete machine:
// classes cycle across cores, hit latency scales with the class, and the
// miss penalty grows with hop distance.
func TestCoreCostTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.HitLatency = 2
	cfg.MissPenalty = 75
	cfg.Machine = Machine{SpeedClasses: "1,3", Topology: TopoMesh, HopPenalty: 10}
	// 4 cores → 2×2 mesh: distances 0,1,1,2; classes cycle 1,3,1,3.
	wantHit := []int64{2, 6, 2, 6}
	wantMiss := []int64{75, 85, 85, 95}
	for c := 0; c < 4; c++ {
		if got := cfg.CoreHitLatency(c); got != wantHit[c] {
			t.Errorf("CoreHitLatency(%d) = %d, want %d", c, got, wantHit[c])
		}
		if got := cfg.CoreMissPenalty(c); got != wantMiss[c] {
			t.Errorf("CoreMissPenalty(%d) = %d, want %d", c, got, wantMiss[c])
		}
	}
	costs, err := cfg.CoreCostTable()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{77, 91, 87, 101}
	if !reflect.DeepEqual(costs, want) {
		t.Errorf("CoreCostTable() = %v, want %v", costs, want)
	}
}

// TestHomogeneousMachineEquivalence is the frozen-behaviour contract of
// the machine-model refactor: every Machine that degenerates to the
// paper's homogeneous machine — uniform speeds spelled any way, any
// topology with a zero hop cost, any hop cost on a bus — must produce
// results bit-identical (reflect.DeepEqual on the full Result) to the
// zero-value Machine, across applications, both address maps, every
// dispatcher family, both segment simulations (RLE and the flat oracle),
// and the pooled executor.
func TestHomogeneousMachineEquivalence(t *testing.T) {
	variants := map[string]Machine{
		"spelled-uniform": {SpeedClasses: "1,1,1"},
		"mesh-no-hop":     {Topology: TopoMesh},
		"bus-with-hop":    {Topology: TopoBus, HopPenalty: 64},
		"ring-uniform":    {SpeedClasses: "1", Topology: TopoRing},
	}
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, app := range apps {
		for amName, am := range rleDiffMaps(t, app, cfg.Cache) {
			for dName, mkDisp := range rleDiffDispatchers(t, app.Graph, cfg.Cores) {
				t.Run(fmt.Sprintf("%s/%s/%s", app.Name, amName, dName), func(t *testing.T) {
					base, err := runOnce(app.Graph, mkDisp(), am, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for vName, m := range variants {
						vcfg := cfg
						vcfg.Machine = m
						got, err := runOnce(app.Graph, mkDisp(), am, vcfg)
						if err != nil {
							t.Fatalf("%s: %v", vName, err)
						}
						if !reflect.DeepEqual(base, got) {
							t.Errorf("%s: diverges from zero-value Machine:\nbase: %+v\ngot:  %+v", vName, base, got)
						}
						flat, err := runFlat(app.Graph, mkDisp(), am, vcfg)
						if err != nil {
							t.Fatalf("%s (flat): %v", vName, err)
						}
						if !reflect.DeepEqual(base, flat) {
							t.Errorf("%s (flat): diverges from zero-value Machine", vName)
						}
						r, err := NewRunner(app.Graph, am, vcfg)
						if err != nil {
							t.Fatalf("%s (parallel): %v", vName, err)
						}
						par, err := r.RunParallel(mkDisp(), 3)
						if err != nil {
							t.Fatalf("%s (parallel): %v", vName, err)
						}
						if !reflect.DeepEqual(base, par) {
							t.Errorf("%s (parallel): diverges from zero-value Machine", vName)
						}
					}
				})
			}
		}
	}
}
