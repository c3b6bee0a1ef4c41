package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// A value exactly on a bound lands in that bound's bucket (le is an
	// upper inclusive bound).
	for _, v := range []float64{0.5, 1} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(2)
	h.Observe(5)
	h.Observe(5.1) // overflow
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))

	s := h.Snapshot()
	wantCounts := []int64{2, 2, 1, 1}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d: got %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Count != 6 {
		t.Errorf("count: got %d, want 6 (NaN/Inf must be dropped)", s.Count)
	}
	if want := 0.5 + 1 + 1.5 + 2 + 5 + 5.1; math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum: got %g, want %g", s.Sum, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in first bucket
	}
	s := h.Snapshot()
	// With every observation in (0,1], the median interpolates to the
	// middle of that bucket.
	if q := s.Quantile(0.5); math.Abs(q-0.5) > 1e-9 {
		t.Errorf("p50: got %g, want 0.5", q)
	}
	if q := s.Quantile(1); math.Abs(q-1) > 1e-9 {
		t.Errorf("p100: got %g, want 1", q)
	}

	// Overflow-only data clamps to the highest finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Snapshot().Quantile(0.5); q != 2 {
		t.Errorf("overflow p50: got %g, want 2", q)
	}

	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty p50: got %g, want 0", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const workers, per = 8, 2000
	stop := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() { // concurrent snapshots while observing
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Count < 0 || math.IsNaN(s.Sum) {
					t.Error("torn snapshot")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapper.Wait()

	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count: got %d, want %d", s.Count, workers*per)
	}
	if want := float64(workers*per) * 0.001; math.Abs(s.Sum-want) > 1e-6 {
		t.Fatalf("sum: got %g, want %g", s.Sum, want)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("locsched_test_ops_total", "ops").Inc()
				r.GaugeFunc("locsched_test_depth", "depth", func() float64 { return float64(i) })
				r.Histogram("locsched_test_seconds", "lat", nil).Observe(0.01)
				var sb strings.Builder
				if err := r.WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("locsched_test_ops_total", "ops").Value(); got != 8*500 {
		t.Fatalf("counter: got %d, want %d", got, 8*500)
	}
}

func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("locsched_test_esc_total", "esc",
		L("path", "a\\b\"c\nd")).Add(3)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	want := `locsched_test_esc_total{path="a\\b\"c\nd"} 3`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing escaped line %q:\n%s", want, text)
	}
	samples, err := ParseExposition([]byte(text))
	if err != nil {
		t.Fatalf("parse-back: %v\n%s", err, text)
	}
	if len(samples) != 1 || samples[0].Label("path") != "a\\b\"c\nd" {
		t.Fatalf("round trip lost label value: %+v", samples)
	}
}

func TestExpositionHistogramRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("locsched_test_wait_seconds", "wait", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition([]byte(sb.String()))
	if err != nil {
		t.Fatalf("parse-back: %v\n%s", err, sb.String())
	}
	snap, ok := HistogramFromSamples(samples, "locsched_test_wait_seconds")
	if !ok {
		t.Fatalf("histogram not reassembled from:\n%s", sb.String())
	}
	if snap.Count != 3 {
		t.Errorf("count: got %d, want 3", snap.Count)
	}
	if want := []int64{1, 1, 1}; len(snap.Counts) != 3 ||
		snap.Counts[0] != want[0] || snap.Counts[1] != want[1] || snap.Counts[2] != want[2] {
		t.Errorf("counts: got %v, want %v", snap.Counts, want)
	}
	if math.Abs(snap.Sum-2.55) > 1e-9 {
		t.Errorf("sum: got %g, want 2.55", snap.Sum)
	}
}

func TestCounterFuncAndNaNSanitized(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("locsched_test_fn_total", "fn", func() float64 { return math.NaN() })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "locsched_test_fn_total 0") {
		t.Fatalf("NaN not sanitized to 0:\n%s", sb.String())
	}
	if _, err := ParseExposition([]byte(sb.String())); err != nil {
		t.Fatalf("parse-back: %v", err)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("locsched_test_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.GaugeFunc("locsched_test_x_total", "x", func() float64 { return 0 })
}

func TestDeltaSamples(t *testing.T) {
	before := []Sample{{Name: "a", Value: 10}, {Name: "b", Labels: []Label{L("k", "v")}, Value: 1}}
	after := []Sample{{Name: "a", Value: 15}, {Name: "b", Labels: []Label{L("k", "v")}, Value: 4}, {Name: "c", Value: 7}}
	d := DeltaSamples(after, before)
	got := map[string]float64{}
	for _, s := range d {
		got[s.Key()] = s.Value
	}
	if got["a"] != 5 || got[`b{k="v"}`] != 3 || got["c"] != 7 {
		t.Fatalf("delta wrong: %v", got)
	}
}
