package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (layer.operation), the
// interval it covered relative to the tracer's origin, and the span that
// caused it (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so measured code paths call
// it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span under parent and returns its id (0 when untraced).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured span (used for client requests, whose
// interval is known only when they complete).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (children may overlap when they ran concurrently). Keys are span ids.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// spanMetric maps a layer span's name to the per-layer metric its self
// time counts toward; mpsoc.sim.<policy> spans count toward mpsoc.sim_s
// and mpsoc.sim_s.<policy>.
var spanMetric = map[string]string{
	"workload.build":   "workload.build_s",
	"workload.combine": "workload.build_s",
	"layout.pack":      "layout.pack_s",
	"sharing.matrix":   "sharing.matrix_s",
	"sched.ls":         "sched.ls_s",
	"sched.lsm_map":    "sched.lsm_map_s",
	"trace.compile":    "trace.compile_s",
}

func metricsOfSpan(name string) []string {
	if pol, ok := strings.CutPrefix(name, "mpsoc.sim."); ok {
		return []string{"mpsoc.sim_s", "mpsoc.sim_s." + pol}
	}
	if m, ok := spanMetric[name]; ok {
		return []string{m}
	}
	return nil
}

// layerTimes attributes the self time of every layer span to its
// metric: the total under the "bench.setup" span plus the median, over
// the "bench.pass" spans, of the total under each pass — the cost of set
// up plus one pass.
func layerTimes(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	phaseOf := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
			if s.Name == "bench.setup" || s.Name == "bench.pass" {
				return s
			}
		}
		return span{}
	}
	setup := make(map[string]float64)
	perPass := make(map[int]map[string]float64)
	for _, s := range spans {
		if s.Name == "bench.pass" {
			perPass[s.ID] = make(map[string]float64)
		}
	}
	for _, s := range spans {
		ph := phaseOf(s)
		for _, m := range metricsOfSpan(s.Name) {
			switch ph.Name {
			case "bench.setup":
				setup[m] += self[s.ID].Seconds()
			case "bench.pass":
				perPass[ph.ID][m] += self[s.ID].Seconds()
			}
		}
	}
	out := setup
	names := make(map[string]bool)
	for _, p := range perPass {
		for m := range p {
			names[m] = true
		}
	}
	for m := range names {
		var xs []float64
		for _, p := range perPass {
			xs = append(xs, p[m])
		}
		out[m] += median(xs)
	}
	return out
}
