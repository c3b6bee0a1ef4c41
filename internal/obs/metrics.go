// Package obs is locsched's observability layer: a stdlib-only metrics
// registry with Prometheus text-format exposition, per-request trace
// spans that propagate across fleet replicas, and structured log/slog
// construction for the serving daemon.
//
// Metric naming follows the convention locsched_<layer>_<name>_<unit>:
// the layer is the subsystem that owns the series (server, cache, store,
// fleet, experiment), counters end in _total, and timed series carry
// their unit (_seconds). Every series a Registry renders is scrapeable
// at the daemon's GET /metricsz endpoint, and every rendered page parses
// back through ParseExposition — a property the FuzzMetricsExposition
// target enforces.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension: a key (identifier grammar) and an
// arbitrary value, escaped at exposition time.
type Label struct {
	// Key is the label name; it must match [a-zA-Z_][a-zA-Z0-9_]*.
	Key string
	// Value is the label value; any string is allowed (quotes,
	// backslashes, and newlines are escaped when rendered).
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is usable
// but unregistered; obtain registered counters from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative deltas are ignored (a counter
// only goes up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// kind is a metric family's exposition TYPE.
type kind int

// The supported family kinds, rendered as the Prometheus TYPE keywords.
const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// typeName returns the exposition TYPE keyword.
func (k kind) typeName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (family, label set) time series: exactly one of the
// value holders is populated.
type series struct {
	labels  []Label
	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// family groups every series sharing one metric name, help string, and
// kind.
type family struct {
	name string
	help string
	kind kind

	mu     sync.Mutex
	series map[string]*series
}

// Registry holds metric families and renders them as Prometheus text
// exposition. The zero value is not usable; build with NewRegistry. All
// methods are safe for concurrent use, and registration is idempotent:
// asking for an existing (name, labels) series returns the same
// instance, so independent subsystems can share a registry without
// coordinating.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s matches the exposition metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelKey reports whether s matches the label-name grammar
// [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// family returns (creating if needed) the named family, panicking on an
// invalid name or a kind conflict — both are programmer errors that must
// fail loudly at registration, not corrupt the exposition at scrape time.
func (r *Registry) family(name, help string, k kind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k.typeName(), f.kind.typeName()))
	}
	return f
}

// canonical sorts and validates a label set and returns its series key.
func canonical(labels []Label) ([]Label, string) {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for i, l := range ls {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q", l.Key))
		}
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: duplicate label key %q", l.Key))
		}
	}
	return ls, renderLabels(ls, "", "")
}

// get returns (creating if needed) the series for a label set.
func (f *family) get(labels []Label) *series {
	ls, key := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: ls}
		f.series[key] = s
	}
	return s
}

// Counter returns the registered counter for (name, labels), creating it
// on first use. name should follow locsched_<layer>_<name>_total.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, kindCounter)
	s := f.get(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
		s.fn = nil
	}
	return s.counter
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for subsystems that already keep their
// own atomic counters (a later registration for the same series replaces
// the function).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, kindCounter)
	s := f.get(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s.fn = fn
	s.counter = nil
}

// GaugeFunc registers a gauge series whose value is read from fn at
// exposition time (a later registration for the same series replaces the
// function).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, kindGauge)
	s := f.get(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s.fn = fn
}

// Histogram returns the registered histogram for (name, labels),
// creating it with the given bucket upper bounds on first use (nil
// selects DefaultLatencyBuckets). name should end in its unit, e.g.
// locsched_server_queue_wait_seconds.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	f := r.family(name, help, kindHistogram)
	s := f.get(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.hist == nil {
		s.hist = NewHistogram(buckets)
	}
	return s.hist
}

// escapeLabel escapes a label value for exposition: backslash, double
// quote, and newline.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are
// legal there).
func escapeHelp(v string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(v)
}

// renderLabels renders a sorted label set as {k="v",...}, with extraKey
// (when non-empty) appended as a final label — the histogram "le" path.
// An empty effective set renders as "".
func renderLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value. NaN is sanitized to 0 — the one
// float the text format's consumers universally choke on must never
// reach the wire (the fuzz target holds the renderer to this).
func formatValue(v float64) string {
	if math.IsNaN(v) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry as Prometheus text exposition (families
// and series in sorted order, so output is deterministic for tests and
// diffs).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.typeName())
		for _, k := range keys {
			s := f.series[k]
			switch {
			case s.hist != nil:
				writeHistogram(&b, f.name, s)
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels, "", ""), formatValue(s.fn()))
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels, "", ""), s.counter.Value())
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// (le-labelled, +Inf last), then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	snap := s.hist.Snapshot()
	cum := int64(0)
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			renderLabels(s.labels, "le", formatValue(bound)), cum)
	}
	cum += snap.Counts[len(snap.Bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(s.labels, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(s.labels, "", ""), formatValue(snap.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(s.labels, "", ""), cum)
}

// Handler returns the /metricsz HTTP handler: GET-only text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "metrics endpoint requires GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
