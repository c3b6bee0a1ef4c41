package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"locsched/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50}, {100, 99, 99}, {100, 100, 100}, {100, 1, 1},
		{4, 50, 2}, {5, 50, 3}, {1, 99, 1}, {3, 0.1, 1},
	} {
		if got := nearestRank(seq(c.n), c.p); got != c.want {
			t.Errorf("nearestRank(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("nearestRank of no samples should be NaN")
	}
}

func TestHighPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		want     float64
		reported float64
	}{
		{2000, 1980, 99}, // p99 has 20 samples beyond it
		{1000, 990, 99},  // exactly 10 beyond
		{100, 90, 90},    // p99 would leave 1 beyond: lowered to p90
		{11, 1, 100.0 / 11},
		{10, 5, 50}, // no percentile keeps 10 beyond: the median
		{3, 2, 50},
	} {
		v, rep := highPercentile(seq(c.n), 99)
		if v != c.want || math.Abs(rep-c.reported) > 1e-9 {
			t.Errorf("n=%d: got %g (p%g), want %g (p%g)", c.n, v, rep, c.want, c.reported)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 4, Name: "d", Start: ms(65), End: ms(90)}, // runs past its parent
		{ID: 6, Parent: 1, Name: "e", Start: ms(95), End: ms(120)},
	}
	want := map[int]time.Duration{1: ms(100 - 40 - 10 - 5), 2: ms(20), 3: ms(30), 4: ms(5), 5: ms(25), 6: ms(25)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
}

func TestLayerTimes(t *testing.T) {
	s := func(id, parent int, name string, start, end int) span {
		return span{ID: id, Parent: parent, Name: name, Start: time.Duration(start) * time.Second, End: time.Duration(end) * time.Second}
	}
	spans := []span{
		s(1, 0, "bench.run", 0, 100),
		s(2, 1, "bench.setup", 0, 10),
		s(3, 2, "sharing.matrix", 0, 4),
		s(4, 2, "workload.build", 4, 5),
		s(5, 2, "workload.combine", 5, 7),
		s(6, 1, "bench.pass", 10, 20),
		s(7, 6, "mpsoc.sim.rs", 10, 13),
		s(8, 1, "bench.pass", 20, 40),
		s(9, 8, "mpsoc.sim.rs", 20, 25),
		s(10, 8, "mpsoc.sim.rrs", 25, 40),
		s(11, 1, "bench.pass", 40, 50),
		s(12, 11, "mpsoc.sim.rs", 40, 49),
	}
	got := layerTimes(spans)
	// Set-up totals once; passes contribute their median (rrs ran in one
	// pass of three, so its median is 0).
	want := map[string]float64{
		"sharing.matrix_s": 4, "workload.build_s": 3,
		"mpsoc.sim_s.rs": 5, "mpsoc.sim_s.rrs": 0, "mpsoc.sim_s": 9,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %g, want %g", k, got[k], w)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	keys, err := serveKeys()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3*burstEvery + 2
	draw := func(seed int64) []request {
		s := newStream(seed, keys, 2)
		out := make([]request, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("seed 7 request %d differs between two streams", i)
		}
		if a[i].Key != c[i].Key {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 dealt the same key sequence")
	}

	seen := make(map[int][]byte)
	fresh := 0
	for i, r := range a {
		if prev, ok := seen[r.Key]; ok && !bytes.Equal(prev, r.Body) {
			t.Fatalf("request %d: key %d has two bodies", i, r.Key)
		}
		if r.Fresh {
			fresh++
			if _, ok := seen[r.Key]; ok {
				t.Fatalf("request %d: fresh key %d was dealt before", i, r.Key)
			}
			for _, k := range keys {
				if bytes.Equal(k, r.Body) {
					t.Fatalf("request %d: fresh body is in the fixed set", i)
				}
			}
		}
		seen[r.Key] = r.Body
	}
	if share := float64(fresh) / n; share < 0.08 || share > 0.12 {
		t.Errorf("fresh share %.3f, want about %.2f", share, freshShare)
	}
	// Every burst is one fresh key sent once per client, back to back.
	for i := burstEvery - 1; i < n; i += burstEvery {
		if !a[i].Fresh || a[i+1].Key != a[i].Key || a[i+1].Fresh {
			t.Errorf("request %d does not start a two-client burst", i)
		}
	}
}

func TestDrawMixBalanced(t *testing.T) {
	for _, tasks := range []int{8, 16, 32, 64} {
		a, b := drawMix(newRNG(3, 1), tasks), drawMix(newRNG(3, 1), tasks)
		count := make(map[string]int)
		for i, name := range a {
			if b[i] != name {
				t.Fatalf("|T|=%d: one seed drew two mixes", tasks)
			}
			count[name]++
		}
		lo, hi := tasks, 0
		for _, name := range workload.Names() {
			lo, hi = min(lo, count[name]), max(hi, count[name])
		}
		if len(a) != tasks || hi-lo > 1 {
			t.Errorf("|T|=%d: drew %d tasks with per-application counts %v", tasks, len(a), count)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	r := &result{Setup: []float64{1}, Units: []unit{{Seconds: 1, Ops: 1, Accesses: 1}}, Ops: []float64{1}}
	for _, c := range []struct {
		what  string
		spec  []struct{ Name, Unit string }
		given map[string]metric
	}{
		{"end-to-end", spec.EndToEnd, endToEnd(r)},
		{"per-layer", spec.PerLayer, perLayer(r)},
	} {
		if len(c.spec) != len(c.given) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the run reports %d", c.what, len(c.spec), len(c.given))
		}
		for _, m := range c.spec {
			if got, ok := c.given[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s metric %s: reported %+v (present %v), BENCHMARK.json unit %s", c.what, m.Name, got, ok, m.Unit)
			}
		}
	}
}
