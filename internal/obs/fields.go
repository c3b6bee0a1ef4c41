package obs

import (
	"fmt"
	"reflect"
	"strings"
)

// A struct field tagged metric:"<series>" help:"…" declares one
// unlabelled series: a name ending in _total is a counter, any other
// name a gauge (or, for a *Histogram field, a histogram). Bind, Publish
// and Fill read the same tags, so a series is written once, on the field
// that holds its value.

// tagged calls fn for every metric-tagged field of struct type t.
func tagged(t reflect.Type, fn func(i int, name, help string)) {
	for i := 0; i < t.NumField(); i++ {
		if name, ok := t.Field(i).Tag.Lookup("metric"); ok {
			fn(i, name, t.Field(i).Tag.Get("help"))
		}
	}
}

// Bind registers the instrument of every tagged field of the struct p
// points to and stores it in the field: a counter for a *Counter field,
// whose name must end in _total, and a histogram over
// DefaultLatencyBuckets for a *Histogram field.
func (r *Registry) Bind(p any) {
	v := reflect.ValueOf(p).Elem()
	tagged(v.Type(), func(i int, name, help string) {
		var m any
		switch {
		case v.Field(i).Type() == reflect.TypeFor[*Histogram]():
			m = r.Histogram(name, help, nil)
		case strings.HasSuffix(name, "_total"):
			m = r.Counter(name, help)
		default:
			panic(fmt.Sprintf("obs: Bind: %q is not a counter name", name))
		}
		v.Field(i).Set(reflect.ValueOf(m))
	})
}

// Publish registers a func series for every tagged integer or float
// field of the struct T; each scrape reads the field from a fresh
// snap(). A subsystem that keeps its own counters publishes its Stats
// snapshot this way, with no per-field mirror.
func Publish[T any](r *Registry, snap func() T) {
	t := reflect.TypeFor[T]()
	tagged(t, func(i int, name, help string) {
		if k := t.Field(i).Type.Kind(); (k < reflect.Int || k > reflect.Int64) && k != reflect.Float32 && k != reflect.Float64 {
			panic(fmt.Sprintf("obs: Publish: field %s of %q is not an integer or float", t.Field(i).Name, name))
		}
		read := func() float64 {
			f := reflect.ValueOf(snap()).Field(i)
			if f.CanInt() {
				return float64(f.Int())
			}
			return f.Float()
		}
		if strings.HasSuffix(name, "_total") {
			r.CounterFunc(name, help, read)
		} else {
			r.GaugeFunc(name, help, read)
		}
	})
}

// Fill sets every tagged integer or float field of the struct p points
// to from the registry's unlabelled series of the same name. It panics
// on a name the registry does not hold, so a misspelled tag fails
// loudly.
func (r *Registry) Fill(p any) {
	v := reflect.ValueOf(p).Elem()
	tagged(v.Type(), func(i int, name, _ string) {
		x, ok := r.value(name)
		if !ok {
			panic(fmt.Sprintf("obs: Fill: no series %q", name))
		}
		if f := v.Field(i); f.CanInt() {
			f.SetInt(int64(x))
		} else {
			f.SetFloat(x)
		}
	})
}

// value reads the unlabelled counter or func series name.
func (r *Registry) value(name string) (float64, bool) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch s := f.series[""]; {
	case s == nil:
	case s.fn != nil:
		return s.fn(), true
	case s.counter != nil:
		return float64(s.counter.Value()), true
	}
	return 0, false
}
