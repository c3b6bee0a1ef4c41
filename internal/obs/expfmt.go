package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set,
// and the sample value. Histogram series appear as their constituent
// _bucket/_sum/_count samples, exactly as rendered.
type Sample struct {
	// Name is the sample's metric name (bucket samples keep the _bucket
	// suffix).
	Name string
	// Labels is the sample's label set in rendered order.
	Labels []Label
	// Value is the parsed sample value.
	Value float64
}

// Key returns the sample's series identity: name plus canonically sorted
// labels — the join key for scrape-and-diff reporting.
func (s Sample) Key() string {
	ls := make([]Label, len(s.Labels))
	copy(ls, s.Labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return s.Name + renderLabels(ls, "", "")
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// ParseExposition parses Prometheus text exposition into samples,
// enforcing the grammar WriteText promises: metric and label names match
// their character classes, label values unescape cleanly, and no sample
// value is NaN. Comment (#) and blank lines are skipped. It is both the
// scrape half of `locsched bench`'s /metricsz diff and the oracle the
// FuzzMetricsExposition target holds the renderer to.
func ParseExposition(data []byte) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// parseSample parses one non-comment exposition line.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("bad metric name in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels, rest = labels, tail
	}
	rest = strings.TrimPrefix(rest, " ")
	if rest == "" || strings.ContainsRune(rest, ' ') {
		return s, fmt.Errorf("bad sample value in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %w", rest, err)
	}
	if math.IsNaN(v) {
		return s, fmt.Errorf("NaN sample value in %q", line)
	}
	s.Value = v
	return s, nil
}

// isNameChar reports whether c is legal in a metric name at the given
// position.
func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// parseLabels parses a {k="v",...} block, returning the labels and the
// remaining tail of the line.
func parseLabels(rest string) ([]Label, string, error) {
	rest = rest[1:] // consume '{'
	var labels []Label
	for {
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		i := 0
		for i < len(rest) && isNameChar(rest[i], i == 0) && rest[i] != ':' {
			i++
		}
		if i == 0 {
			return nil, "", fmt.Errorf("bad label key at %q", rest)
		}
		key := rest[:i]
		rest = rest[i:]
		if !strings.HasPrefix(rest, `="`) {
			return nil, "", fmt.Errorf("label %s missing quoted value", key)
		}
		rest = rest[2:]
		var val strings.Builder
		for {
			if rest == "" {
				return nil, "", fmt.Errorf("unterminated label value for %s", key)
			}
			c := rest[0]
			if c == '"' {
				rest = rest[1:]
				break
			}
			if c == '\\' {
				if len(rest) < 2 {
					return nil, "", fmt.Errorf("dangling escape in label %s", key)
				}
				switch rest[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %s", rest[1], key)
				}
				rest = rest[2:]
				continue
			}
			if c == '\n' {
				return nil, "", fmt.Errorf("raw newline in label %s", key)
			}
			val.WriteByte(c)
			rest = rest[1:]
		}
		labels = append(labels, Label{Key: key, Value: val.String()})
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if !strings.HasPrefix(rest, "}") {
			return nil, "", fmt.Errorf("expected , or } after label %s", key)
		}
	}
}

// DeltaSamples subtracts the matching before-series from after (joined
// on Sample.Key); series absent from before keep their after value.
// Gauge series subtract like everything else, so callers should diff
// only monotone series (counters, histogram buckets/sums/counts) — which
// is exactly what scrape-and-diff reporting reads.
func DeltaSamples(after, before []Sample) []Sample {
	prior := make(map[string]float64, len(before))
	for _, s := range before {
		prior[s.Key()] = s.Value
	}
	out := make([]Sample, len(after))
	for i, s := range after {
		s.Value -= prior[s.Key()]
		out[i] = s
	}
	return out
}

// HistogramFromSamples reassembles the named histogram from parsed
// samples (its _bucket series, any extra labels ignored), summing
// duplicate le-values so multi-label families aggregate. ok is false
// when no buckets were found.
func HistogramFromSamples(samples []Sample, name string) (HistSnapshot, bool) {
	type bkt struct {
		le  float64
		cum float64
	}
	byLE := make(map[float64]float64)
	var sum float64
	for _, s := range samples {
		switch s.Name {
		case name + "_bucket":
			le := s.Label("le")
			if le == "" {
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			byLE[v] += s.Value
		case name + "_sum":
			sum += s.Value
		}
	}
	if len(byLE) == 0 {
		return HistSnapshot{}, false
	}
	bkts := make([]bkt, 0, len(byLE))
	for le, cum := range byLE {
		bkts = append(bkts, bkt{le: le, cum: cum})
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	snap := HistSnapshot{Sum: sum}
	prev := 0.0
	for _, b := range bkts {
		c := int64(b.cum - prev)
		if c < 0 {
			c = 0
		}
		prev = b.cum
		if math.IsInf(b.le, 1) {
			snap.Counts = append(snap.Counts, c)
			continue
		}
		snap.Bounds = append(snap.Bounds, b.le)
		snap.Counts = append(snap.Counts, c)
	}
	// A rendered histogram always ends with +Inf; tolerate its absence by
	// padding the overflow bucket.
	if len(snap.Counts) == len(snap.Bounds) {
		snap.Counts = append(snap.Counts, 0)
	}
	for _, c := range snap.Counts {
		snap.Count += c
	}
	if len(snap.Bounds) == 0 {
		return HistSnapshot{}, false
	}
	return snap, true
}
