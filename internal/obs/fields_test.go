package obs

import (
	"strings"
	"testing"
)

// TestTaggedFields: one tag declares a series for Bind, Publish and Fill
// alike. A _total name is a counter, any other a gauge; Fill reads every
// tagged field back from the registry by the same name.
func TestTaggedFields(t *testing.T) {
	r := NewRegistry()
	var live struct {
		Hits   *Counter `metric:"t_hits_total" help:"Hits."`
		Ignore *Counter
	}
	r.Bind(&live)
	live.Hits.Add(3)
	if live.Ignore != nil {
		t.Fatal("Bind set an untagged field")
	}
	type stats struct {
		Depth int     `metric:"t_depth" help:"Depth."`
		Bytes int32   `metric:"t_bytes_total" help:"Bytes."`
		Ratio float64 `metric:"t_ratio" help:"Ratio."`
		Name  string
	}
	cur := stats{Depth: 7, Bytes: 9, Ratio: 0.5}
	Publish(r, func() stats { return cur })
	cur.Depth = 8 // series read a fresh snapshot at each scrape

	var b strings.Builder
	r.WriteText(&b)
	for _, want := range []string{
		"# HELP t_hits_total Hits.\n# TYPE t_hits_total counter\nt_hits_total 3\n",
		"# TYPE t_depth gauge\nt_depth 8\n",
		"# TYPE t_bytes_total counter\nt_bytes_total 9\n",
		"# TYPE t_ratio gauge\nt_ratio 0.5\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}

	var got struct {
		Hits  int64   `metric:"t_hits_total"`
		Depth int     `metric:"t_depth"`
		Bytes int64   `metric:"t_bytes_total"`
		Ratio float64 `metric:"t_ratio"`
		Other int
	}
	r.Fill(&got)
	if got.Hits != 3 || got.Depth != 8 || got.Bytes != 9 || got.Ratio != 0.5 || got.Other != 0 {
		t.Fatalf("Fill = %+v", got)
	}
}

// TestTaggedFieldsPanic: a tag that cannot hold its series fails at
// registration or fill time, never silently.
func TestTaggedFieldsPanic(t *testing.T) {
	r := NewRegistry()
	for name, f := range map[string]func(){
		"Bind of a gauge name": func() {
			var c struct {
				X *Counter `metric:"t_x"`
			}
			r.Bind(&c)
		},
		"Publish of a string": func() {
			type s struct {
				X string `metric:"t_s"`
			}
			Publish(r, func() s { return s{} })
		},
		"Publish of an unsigned integer": func() {
			type s struct {
				X uint64 `metric:"t_u"`
			}
			Publish(r, func() s { return s{} })
		},
		"Fill of a missing series": func() {
			var s struct {
				X int `metric:"t_missing_total"`
			}
			r.Fill(&s)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
