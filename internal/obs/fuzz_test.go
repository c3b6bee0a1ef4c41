package obs

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzMetricsExposition holds WriteText to its contract: whatever label
// values and observations land in the registry, the rendered exposition
// must parse back through ParseExposition — valid name/label grammar,
// clean escapes, and never a NaN on the wire.
func FuzzMetricsExposition(f *testing.F) {
	f.Add("simple", 1.5, int64(3))
	f.Add("with\"quote", math.Inf(1), int64(0))
	f.Add("back\\slash\nnewline", -2.25, int64(-7))
	f.Add("", math.NaN(), int64(1<<62))
	f.Add("unicode-λ…", 1e300, int64(42))
	f.Fuzz(func(t *testing.T, labelVal string, obsVal float64, counterDelta int64) {
		r := NewRegistry()
		c := r.Counter("locsched_fuzz_ops_total", "fuzzed counter", L("tag", labelVal))
		c.Add(counterDelta)
		c.Inc()
		r.GaugeFunc("locsched_fuzz_depth", "fuzzed gauge", func() float64 { return float64(counterDelta) }, L("tag", labelVal))
		r.CounterFunc("locsched_fuzz_fn_total", "fuzzed func", func() float64 { return obsVal })
		h := r.Histogram("locsched_fuzz_wait_seconds", "fuzzed hist", nil, L("tag", labelVal))
		h.Observe(obsVal)
		h.Observe(0.001)

		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		samples, err := ParseExposition([]byte(sb.String()))
		if err != nil {
			t.Fatalf("rendered exposition does not parse back: %v\n%s", err, sb.String())
		}
		for _, s := range samples {
			if math.IsNaN(s.Value) {
				t.Fatalf("NaN escaped to the wire in %q", s.Name)
			}
			// Invalid UTF-8 is replaced with U+FFFD at render time, so an
			// exact round trip is only promised for valid strings.
			if utf8.ValidString(labelVal) && s.Label("tag") != "" && s.Label("tag") != labelVal {
				t.Fatalf("label round trip corrupted %q -> %q", labelVal, s.Label("tag"))
			}
		}
	})
}
