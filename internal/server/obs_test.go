package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"locsched/internal/obs"
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
