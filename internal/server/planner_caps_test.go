package server

import (
	"fmt"
	"strings"
	"testing"
)

// TestRequestCapBoundaries pins every per-request service limit with a
// cap−1 / cap / cap+1 triple: the first two plan, the third is rejected
// with the exact limit error. The other fields of each body are chosen
// so that only the cap under test decides the outcome (a small app at
// scale 1, and a cache geometry that stays valid on both sides of the
// assoc cap). The test only plans — no job ever runs. The simulated-
// bytes cap is a product, so its triple steps one core at a 1 MiB cache
// (one MiB either side of the cap) rather than one byte.
func TestRequestCapBoundaries(t *testing.T) {
	limitErr := fmt.Sprintf("server: config overrides exceed service limits (cores ≤ %d, cache_kb ≤ %d, assoc ≤ %d)",
		maxReqCores, maxReqCacheKB, maxReqAssoc)
	xlPoints := func(n int) string {
		return strings.TrimSuffix(strings.Repeat(`{"cores":32,"tasks":1},`, n), ",")
	}
	cases := []struct {
		name     string
		endpoint string
		body     func(v int) string
		cap      int
		wantErr  string // the cap+1 rejection
	}{
		{"mix", "run", func(v int) string {
			return fmt.Sprintf(`{"workload":{"mix":%d,"scale":1},"policy":"RS"}`, v)
		}, maxReqMix, fmt.Sprintf("server: mix %d exceeds the service limit %d", maxReqMix+1, maxReqMix)},
		{"config cores", "run", func(v int) string {
			return fmt.Sprintf(`{"workload":{"app":"MxM","scale":1},"policy":"RS","config":{"cores":%d}}`, v)
		}, maxReqCores, limitErr},
		{"analysis cores", "analysis", func(v int) string {
			return fmt.Sprintf(`{"workload":{"app":"MxM","scale":1},"cores":%d}`, v)
		}, maxReqCores, fmt.Sprintf("server: cores %d out of range [1, %d]", maxReqCores+1, maxReqCores)},
		{"request scale", "run", func(v int) string {
			return fmt.Sprintf(`{"workload":{"app":"MxM","scale":%d},"policy":"RS"}`, v)
		}, maxReqScale, fmt.Sprintf("server: scale %d out of range [0, %d]", maxReqScale+1, maxReqScale)},
		{"workload scale", "analysis", func(v int) string {
			return fmt.Sprintf(`{"workload":{"app":"MxM","scale":%d}}`, v)
		}, maxReqScale, fmt.Sprintf("server: workload scale %d out of range [0, %d]", maxReqScale+1, maxReqScale)},
		{"cache_kb", "run", func(v int) string {
			return fmt.Sprintf(`{"workload":{"app":"MxM","scale":1},"policy":"RS","config":{"cores":1,"cache_kb":%d}}`, v)
		}, maxReqCacheKB, limitErr},
		// 32736 KiB = 1023 × 32 KiB is divisible by block × assoc for
		// both 1023 and 1024 ways, so the geometry validates at cap−1
		// and at the cap.
		{"assoc", "run", func(v int) string {
			return fmt.Sprintf(`{"workload":{"app":"MxM","scale":1},"policy":"RS","config":{"cache_kb":32736,"assoc":%d}}`, v)
		}, maxReqAssoc, limitErr},
		{"sim bytes (resolved config)", "run", func(v int) string {
			return fmt.Sprintf(`{"workload":{"app":"MxM","scale":1},"policy":"RS","config":{"cores":%d,"cache_kb":1024}}`, v)
		}, maxReqSimBytes >> 20, fmt.Sprintf("server: cores × cache size = %d bytes exceeds the service limit %d",
			int64(maxReqSimBytes)+1<<20, int64(maxReqSimBytes))},
		{"sim bytes (fig7xl point)", "figure", func(v int) string {
			return fmt.Sprintf(`{"figure":"fig7xl","scale":1,"config":{"cache_kb":1024},"xl_points":[{"cores":%d,"tasks":1}]}`, v)
		}, maxReqSimBytes >> 20, fmt.Sprintf("server: xl point %dc/|T|=1 × cache size = %d bytes exceeds the service limit %d",
			maxReqSimBytes>>20+1, int64(maxReqSimBytes)+1<<20, int64(maxReqSimBytes))},
		{"xl points", "figure", func(v int) string {
			return fmt.Sprintf(`{"figure":"fig7xl","scale":1,"xl_points":[%s]}`, xlPoints(v))
		}, maxReqXLPoints, fmt.Sprintf("server: %d xl points exceed the service limit %d", maxReqXLPoints+1, maxReqXLPoints)},
	}
	p := NewPlanner(DefaultConfig())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range []int{c.cap - 1, c.cap} {
				if _, err := p.Plan(c.endpoint, []byte(c.body(v))); err != nil {
					t.Errorf("%d (≤ cap %d) rejected: %v", v, c.cap, err)
				}
			}
			_, err := p.Plan(c.endpoint, []byte(c.body(c.cap+1)))
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%d (cap %d + 1): got error %v, want %q", c.cap+1, c.cap, err, c.wantErr)
			}
		})
	}
}
