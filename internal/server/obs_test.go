package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"locsched/internal/experiment"
	"locsched/internal/obs"
	"locsched/internal/store"
)

// The observability suite: /statsz keeps its exact JSON contract,
// /metricsz renders parseable exposition with the key series populated,
// and trace ids mint/echo/propagate across fleet replicas — all without
// disturbing a single response byte.

// syncBuffer is a goroutine-safe log sink for capturing structured
// access and span lines from a live server.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestStatszFieldSet is the /statsz compatibility regression: routing
// the counters through the metrics registry must not add, drop, or
// rename a single top-level JSON field.
func TestStatszFieldSet(t *testing.T) {
	p := &fakePlanner{}
	_, ts := testServer(t, smallConfig(), p)
	postBody(t, ts.URL+"/v1/run", `{"a":1}`)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"uptime_seconds", "requests", "cache_hits", "coalesced",
		"executions", "rejected", "timeouts", "coalesce_timeouts",
		"disk_hits", "disk_writes", "peer_hits", "peer_errors",
		"failures", "bad_requests", "queue_depth", "queue_cap",
		"inflight_keys", "result_entries", "result_bytes",
		"persistent_store", "fleet", "experiment",
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("/statsz top-level fields changed:\n got  %v\n want %v", got, want)
	}
	if m["requests"].(float64) != 1 {
		t.Fatalf("requests = %v, want 1", m["requests"])
	}
}

// metricValue finds the value of the named series (optionally matching
// one label) in a parsed scrape, or -1 when absent.
func metricValue(samples []obs.Sample, name, labelKey, labelVal string) float64 {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		if labelKey != "" && s.Label(labelKey) != labelVal {
			continue
		}
		return s.Value
	}
	return -1
}

// scrapeMetricsz fetches and parses one /metricsz page.
func scrapeMetricsz(t *testing.T, url string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricszExposition: after live traffic, /metricsz serves valid
// Prometheus text exposition whose request, cache, queue, and latency
// series reflect what actually happened.
func TestMetricszExposition(t *testing.T) {
	p := &fakePlanner{}
	_, ts := testServer(t, smallConfig(), p)
	postBody(t, ts.URL+"/v1/run", `{"a":1}`) // cold
	postBody(t, ts.URL+"/v1/run", `{"a":1}`) // cached

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metricsz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	if v := metricValue(samples, "locsched_server_requests_total", "", ""); v != 2 {
		t.Fatalf("requests_total = %v, want 2", v)
	}
	if v := metricValue(samples, "locsched_cache_memory_hits_total", "", ""); v != 1 {
		t.Fatalf("cache_memory_hits_total = %v, want 1", v)
	}
	if v := metricValue(samples, "locsched_server_responses_total", "class", "cold"); v != 1 {
		t.Fatalf(`responses_total{class="cold"} = %v, want 1`, v)
	}
	if v := metricValue(samples, "locsched_server_responses_total", "class", "cached"); v != 1 {
		t.Fatalf(`responses_total{class="cached"} = %v, want 1`, v)
	}
	// Histograms: the request histogram saw both HTTP requests, the
	// execution histogram the single job, and the de-cumulated buckets
	// sum back to the count.
	if v := metricValue(samples, "locsched_server_request_seconds_count", "", ""); v < 2 {
		t.Fatalf("request_seconds_count = %v, want >= 2", v)
	}
	if v := metricValue(samples, "locsched_server_execution_seconds_count", "", ""); v != 1 {
		t.Fatalf("execution_seconds_count = %v, want 1", v)
	}
	h, ok := obs.HistogramFromSamples(samples, "locsched_server_request_seconds")
	if !ok {
		t.Fatal("request_seconds histogram not reconstructable from scrape")
	}
	if h.Count < 2 {
		t.Fatalf("reconstructed histogram count = %d, want >= 2", h.Count)
	}
	// Gauges are sampled live from their owners.
	if v := metricValue(samples, "locsched_server_queue_capacity", "", ""); v != 8 {
		t.Fatalf("queue_capacity = %v, want 8", v)
	}
	if v := metricValue(samples, "locsched_server_queue_depth", "", ""); v < 0 {
		t.Fatal("queue_depth series missing")
	}
	for _, name := range []string{"locsched_store_writes_total", "locsched_store_degraded"} {
		if v := metricValue(samples, name, "", ""); v != -1 {
			t.Fatalf("store series present without a store: %s = %v", name, v)
		}
	}
}

// TestMetricszMethodNotAllowed: the scrape endpoint is read-only.
func TestMetricszMethodNotAllowed(t *testing.T) {
	p := &fakePlanner{}
	_, ts := testServer(t, smallConfig(), p)
	resp, err := http.Post(ts.URL+"/metricsz", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metricsz: status %d, want 405", resp.StatusCode)
	}
}

// TestTraceHeader: every response carries a valid trace id; a valid
// inbound id is adopted and echoed, an invalid one is replaced.
func TestTraceHeader(t *testing.T) {
	p := &fakePlanner{}
	_, ts := testServer(t, smallConfig(), p)

	resp, _ := postBody(t, ts.URL+"/v1/run", `{"a":1}`)
	minted := resp.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(minted) {
		t.Fatalf("minted trace id %q is not valid", minted)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"a":2}`))
	req.Header.Set(obs.TraceHeader, "deadbeef-0042")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(obs.TraceHeader); got != "deadbeef-0042" {
		t.Fatalf("valid inbound id not echoed: got %q", got)
	}

	req3, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"a":3}`))
	req3.Header.Set(obs.TraceHeader, "not!a//trace id")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	got := resp3.Header.Get(obs.TraceHeader)
	if got == "not!a//trace id" || !obs.ValidTraceID(got) {
		t.Fatalf("invalid inbound id not replaced: got %q", got)
	}
}

// TestFleetTracePropagation: a trace id supplied to a non-owner rides
// the peer fetch to the owner, so one request is correlatable in both
// replicas' structured logs by a single grep.
func TestFleetTracePropagation(t *testing.T) {
	logs := make([]*syncBuffer, 2)
	nodes := startChaosFleet(t, 2, func(i int, cfg *Config) {
		logs[i] = &syncBuffer{}
		level, err := obs.ParseLevel("debug")
		if err != nil {
			t.Fatal(err)
		}
		logger, err := obs.NewLogger(logs[i], "json", level)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Logger = logger
	})
	a, b := nodes[0], nodes[1]
	body := bodyOwnedBy(t, "run", []string{a.base, b.base}, b.base)

	// Owner computes first so the non-owner's request is a pure peer hit.
	respB, _ := postBody(t, b.base+"/v1/run", body)
	if respB.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("owner compute served %q, want cold", respB.Header.Get(ResultHeader))
	}

	const id = "deadbeef-cafe-0001"
	req, _ := http.NewRequest("POST", a.base+"/v1/run", strings.NewReader(body))
	req.Header.Set(obs.TraceHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(ResultHeader) != "peer" {
		t.Fatalf("non-owner served %q, want peer", resp.Header.Get(ResultHeader))
	}
	if got := resp.Header.Get(obs.TraceHeader); got != id {
		t.Fatalf("trace id not echoed: got %q", got)
	}

	needle := `"trace_id":"` + id + `"`
	if !strings.Contains(logs[0].String(), needle) {
		t.Fatalf("non-owner log lacks %s:\n%s", needle, logs[0].String())
	}
	if !strings.Contains(logs[1].String(), needle) {
		t.Fatalf("owner log lacks %s — trace id did not propagate over the peer fetch:\n%s", needle, logs[1].String())
	}
	// The non-owner's span log names the peer-fetch span under the trace.
	if !strings.Contains(logs[0].String(), `"span":"cache_peer"`) {
		t.Fatalf("non-owner log lacks cache_peer span:\n%s", logs[0].String())
	}
}

// statszSeries maps every numeric /statsz field but uptime_seconds, by
// its JSON path, to the /metricsz series that holds the same number.
var statszSeries = map[string]string{
	"requests":          "locsched_server_requests_total",
	"cache_hits":        "locsched_cache_memory_hits_total",
	"coalesced":         "locsched_server_coalesced_total",
	"executions":        "locsched_server_executions_total",
	"rejected":          "locsched_server_rejected_total",
	"timeouts":          "locsched_server_timeouts_total",
	"coalesce_timeouts": "locsched_server_coalesce_timeouts_total",
	"disk_hits":         "locsched_cache_disk_hits_total",
	"disk_writes":       "locsched_store_write_through_total",
	"peer_hits":         "locsched_fleet_peer_hits_total",
	"peer_errors":       "locsched_fleet_peer_errors_total",
	"failures":          "locsched_server_failures_total",
	"bad_requests":      "locsched_server_bad_requests_total",
	"queue_depth":       "locsched_server_queue_depth",
	"queue_cap":         "locsched_server_queue_capacity",
	"inflight_keys":     "locsched_server_inflight_keys",
	"result_entries":    "locsched_cache_memory_entries",
	"result_bytes":      "locsched_cache_memory_bytes",

	"fleet.peer_misses":        "locsched_fleet_peer_misses_total",
	"fleet.peer_serves":        "locsched_fleet_peer_serves_total",
	"fleet.replicated_in":      "locsched_fleet_replicated_in_total",
	"fleet.replicated_out":     "locsched_fleet_replicated_out_total",
	"fleet.replication_errors": "locsched_fleet_replication_errors_total",

	"persistent_store.store.entries":           "locsched_store_entries",
	"persistent_store.store.segments":          "locsched_store_segments",
	"persistent_store.store.disk_bytes":        "locsched_store_disk_bytes",
	"persistent_store.store.recovered_entries": "locsched_store_recovered_entries",
	"persistent_store.store.lost_bytes":        "locsched_store_lost_bytes_total",
	"persistent_store.store.hits":              "locsched_store_hits_total",
	"persistent_store.store.misses":            "locsched_store_misses_total",
	"persistent_store.store.writes":            "locsched_store_writes_total",
	"persistent_store.store.write_errors":      "locsched_store_write_errors_total",
	"persistent_store.store.dropped_writes":    "locsched_store_dropped_writes_total",
	"persistent_store.store.read_errors":       "locsched_store_read_errors_total",
	"persistent_store.store.quarantined":       "locsched_store_quarantined_total",
	"persistent_store.store.retries":           "locsched_store_retries_total",
	"persistent_store.store.op_timeouts":       "locsched_store_op_timeouts_total",
	"persistent_store.store.evicted_segments":  "locsched_store_evicted_segments_total",
	"persistent_store.store.breaker_trips":     "locsched_store_breaker_trips_total",

	"experiment.MatrixHits":        "locsched_experiment_matrix_hits_total",
	"experiment.MatrixMisses":      "locsched_experiment_matrix_misses_total",
	"experiment.LSHits":            "locsched_experiment_ls_hits_total",
	"experiment.LSMisses":          "locsched_experiment_ls_misses_total",
	"experiment.LSMHits":           "locsched_experiment_lsm_hits_total",
	"experiment.LSMMisses":         "locsched_experiment_lsm_misses_total",
	"experiment.AnalysisEvictions": "locsched_experiment_analysis_evictions_total",
	"experiment.RunnerPoolHits":    "locsched_experiment_runner_pool_hits_total",
	"experiment.InternHits":        "locsched_experiment_intern_hits_total",
}

// numericLeaves flattens a decoded JSON object's numeric leaves into
// dotted paths.
func numericLeaves(prefix string, m map[string]any, out map[string]float64) {
	for k, v := range m {
		switch v := v.(type) {
		case float64:
			out[prefix+k] = v
		case map[string]any:
			numericLeaves(prefix+k+".", v, out)
		}
	}
}

// declaredSeries lists the metric tag of every numeric field of struct
// type typ by its JSON path (the json tag name, or the Go name when the
// field has none).
func declaredSeries(prefix string, typ reflect.Type, out map[string]string) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); k < reflect.Int || k > reflect.Float64 {
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" {
			key = f.Name
		}
		out[prefix+key] = f.Tag.Get("metric")
	}
}

// TestStatszAgreesWithMetricsz: after the pinned traffic, every numeric
// /statsz field but the uptime equals its series on the same daemon's
// /metricsz, across the top level and the fleet, persistent_store.store
// and experiment sections. Each field's tag must name that series, so a
// dropped tag cannot hide behind a field whose value is zero.
func TestStatszAgreesWithMetricsz(t *testing.T) {
	declared := make(map[string]string)
	declaredSeries("", reflect.TypeFor[StatsSnapshot](), declared)
	declaredSeries("fleet.", reflect.TypeFor[FleetSnapshot](), declared)
	declaredSeries("persistent_store.store.", reflect.TypeFor[store.Stats](), declared)
	declaredSeries("experiment.", reflect.TypeFor[experiment.CacheStats](), declared)
	delete(declared, "uptime_seconds")
	if fmt.Sprint(declared) != fmt.Sprint(statszSeries) {
		t.Errorf("/statsz field tags:\n got  %v\n want %v", declared, statszSeries)
	}

	ts := pinnedDaemon(t)
	var m map[string]any
	if err := json.Unmarshal([]byte(getText(t, ts.URL+"/statsz")), &m); err != nil {
		t.Fatal(err)
	}
	samples := scrapeMetricsz(t, ts.URL)
	leaves := make(map[string]float64)
	numericLeaves("", m, leaves)
	delete(leaves, "uptime_seconds")
	if len(leaves) != len(statszSeries) {
		t.Errorf("/statsz has %d numeric fields, want %d", len(leaves), len(statszSeries))
	}
	for path, v := range leaves {
		name, ok := statszSeries[path]
		if !ok {
			t.Errorf("/statsz field %s has no series", path)
			continue
		}
		if got := metricValue(samples, name, "", ""); got != v {
			t.Errorf("/statsz %s = %v, /metricsz %s = %v", path, v, name, got)
		}
	}
}
