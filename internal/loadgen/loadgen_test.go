package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locsched/internal/obs"
	"locsched/internal/server"
	"locsched/internal/store"
)

// fakePlanner is a scripted server.Planner: every body is its own key,
// and a job answers immediately with bytes derived from that key, so
// the serving machinery runs without real experiments.
type fakePlanner struct {
	execs atomic.Int64
}

// Plan implements server.Planner.
func (p *fakePlanner) Plan(endpoint string, body []byte) (*server.Job, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	key := endpoint + "|" + string(body)
	return &server.Job{Key: key, Run: func() ([]byte, error) {
		p.execs.Add(1)
		return []byte("resp:" + key), nil
	}}, nil
}

// smallConfig is a cheap daemon configuration for fake-planner tests.
func smallConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 8
	cfg.RequestTimeout = 5 * time.Second
	return cfg
}

// startDaemon serves a fake-planner daemon behind an httptest front end
// and returns a stop function that tears both down in order.
func startDaemon(t *testing.T, cfg server.Config, p server.Planner) (*httptest.Server, func()) {
	t.Helper()
	s, err := server.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return ts, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

// post sends one request body and fails the test unless it succeeds.
func post(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// TestPercentile pins the nearest-rank definition the load report uses:
// p50 of an even-sized set is the lower middle element, p99 of fewer
// than 100 samples is the maximum, and an empty run reports zero.
func TestPercentile(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		sorted []time.Duration
		p      int
		want   time.Duration
	}{
		{nil, 50, 0},
		// One sample: every percentile is that sample — the rank must
		// clamp into [1, len] instead of misindexing.
		{ms(7), 50, 7 * time.Millisecond},
		{ms(7), 95, 7 * time.Millisecond},
		{ms(7), 99, 7 * time.Millisecond},
		// Two samples: p50 is the lower middle, the tails are the max.
		{ms(3, 9), 50, 3 * time.Millisecond},
		{ms(3, 9), 95, 9 * time.Millisecond},
		{ms(3, 9), 99, 9 * time.Millisecond},
		// Three samples.
		{ms(1, 5, 8), 50, 5 * time.Millisecond},
		{ms(1, 5, 8), 95, 8 * time.Millisecond},
		{ms(1, 5, 8), 99, 8 * time.Millisecond},
		{ms(1, 2, 3, 4), 50, 2 * time.Millisecond},
		{ms(1, 2, 3, 4), 95, 4 * time.Millisecond},
		{ms(1, 2, 3, 4, 5), 50, 3 * time.Millisecond},
		{ms(1, 2, 3, 4, 5), 99, 5 * time.Millisecond},
		// A 100-sample stream: nearest rank is exact, and an out-of-range
		// percentile clamps to the maximum instead of panicking.
		{hundred, 50, 50 * time.Millisecond},
		{hundred, 95, 95 * time.Millisecond},
		{hundred, 99, 99 * time.Millisecond},
		{hundred, 100, 100 * time.Millisecond},
		{hundred, 101, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(len %d, %d) = %v, want %v", len(c.sorted), c.p, got, c.want)
		}
	}
	// Percentiles of a sorted stream are themselves monotone: a smaller
	// p must never report a larger latency (the misordered-percentiles
	// regression).
	for _, n := range []int{1, 2, 3, 100} {
		s := hundred[:n]
		if p50, p95, p99 := percentile(s, 50), percentile(s, 95), percentile(s, 99); p50 > p95 || p95 > p99 {
			t.Errorf("misordered percentiles over %d samples: p50=%v p95=%v p99=%v", n, p50, p95, p99)
		}
	}
}

// TestLoadReportFormatLatency: the human report carries the latency
// percentile line (the CI bench step greps the rendered report).
func TestLoadReportFormatLatency(t *testing.T) {
	rep := &LoadReport{
		P50: 1500 * time.Microsecond,
		P95: 20 * time.Millisecond,
		P99: 120 * time.Millisecond,
	}
	got := rep.Format()
	if !strings.Contains(got, "latency: p50 1.50ms, p95 20.00ms, p99 120.00ms") {
		t.Errorf("report missing latency line:\n%s", got)
	}
}

// TestRunLoadCountsMatchServer: the client-side class counts agree with
// the daemon's own per-class response counters for the run, and the
// server-side counts exclude traffic the daemon saw before the run.
func TestRunLoadCountsMatchServer(t *testing.T) {
	p := &fakePlanner{}
	ts, stop := startDaemon(t, smallConfig(), p)
	defer stop()
	for _, body := range []string{`{"pre":1}`, `{"pre":2}`, `{"pre":1}`} {
		post(t, ts.URL+"/v1/run", body)
	}
	pre := p.execs.Load()
	rep, err := RunLoad(LoadConfig{BaseURL: ts.URL, Concurrency: 3, Requests: 50, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors\n%s", rep.Errors, rep.Format())
	}
	for class, got := range map[string]int{
		"cold": rep.Cold, "cached": rep.Cached, "disk": rep.Disk, "coalesced": rep.Coalesced, "peer": rep.Peer,
	} {
		if want := rep.Server.Counter("locsched_server_responses_total", obs.L("class", class)); int64(got) != want {
			t.Errorf("%s: report counted %d, daemon counted %d this run", class, got, want)
		}
	}
	if rep.Cached == 0 {
		t.Error("no cache hits: the stream's repeats should be served from the cache")
	}
	if got, want := rep.Server.Counter(executionsTotal), p.execs.Load()-pre; got != want {
		t.Errorf("executions this run = %d, want %d (the pre-run traffic's %d excluded)", got, want, pre)
	}
	if got := rep.Server.Counter("locsched_server_requests_total"); got != int64(rep.Requests) {
		t.Errorf("daemon counted %d requests this run, report sent %d", got, rep.Requests)
	}
}

// TestWarmManifestReplay: the persisted cache manifest round-trips into
// replayable requests, and a second lifetime warmed from it serves
// those requests from the recovered store — the bench's realistic warm
// set, end to end.
func TestWarmManifestReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.StoreDir = dir

	// Lifetime 1: compute three distinct keys, then shut down — Shutdown
	// persists the manifest with each entry's replay metadata.
	ts1, stop1 := startDaemon(t, cfg, &fakePlanner{})
	reqs := []string{`{"w":1}`, `{"w":2}`, `{"w":3}`}
	for _, body := range reqs {
		post(t, ts1.URL+"/v1/run", body)
	}
	stop1()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := st.ManifestPath()
	st.Close()
	if _, err := os.Stat(manifestPath); err != nil {
		t.Fatalf("manifest not persisted: %v", err)
	}

	replay, err := manifestRequests(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(reqs) {
		t.Fatalf("manifest describes %d replayable requests, want %d", len(replay), len(reqs))
	}
	for _, r := range replay {
		if r.endpoint != "/v1/run" {
			t.Fatalf("replay endpoint %q, want /v1/run", r.endpoint)
		}
	}

	// Lifetime 2: a fresh daemon on the same store, warmed via the
	// manifest by the load generator itself. Every warm request must be
	// a disk hit — zero executions.
	ts2, stop2 := startDaemon(t, cfg, &fakePlanner{})
	defer stop2()
	rep, err := RunLoad(LoadConfig{
		BaseURL:      ts2.URL,
		Concurrency:  2,
		Requests:     len(reqs), // a short live stream after the warm phase
		Timeout:      10 * time.Second,
		WarmManifest: manifestPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("warm replay run had %d errors", rep.Errors)
	}
	if rep.Disk < len(reqs) {
		t.Fatalf("warm replay served %d disk hits, want at least %d (one per manifest entry)", rep.Disk, len(reqs))
	}
	if got := rep.Server.Counter(diskHitsTotal); got < int64(len(reqs)) {
		t.Fatalf("daemon disk hits %d, want at least %d", got, len(reqs))
	}
}
