package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The two pins below fix both observability surfaces of one scripted
// daemon: the exact /statsz bytes and the /metricsz series set. Any
// change to how a series is declared or copied must leave both alone.

// routedPlanner sends each endpoint to its own planner: "run" to a plain
// scripted planner, "figure" to a gated one (so a burst coalesces
// deterministically), and "analysis" to the production planner (so the
// experiment section counts real analysis work).
type routedPlanner struct {
	run, figure, analysis Planner
}

func (p routedPlanner) Plan(endpoint string, body []byte) (*Job, error) {
	switch endpoint {
	case "figure":
		return p.figure.Plan(endpoint, body)
	case "analysis":
		return p.analysis.Plan(endpoint, body)
	}
	return p.run.Plan(endpoint, body)
}

// pinnedDaemon serves the scripted counter state the pins read: a daemon
// with a persistent store (one entry written by an earlier daemon over
// the same directory) and fleet mode on as a one-member ring, after
// disk, cold, cached, coalesced and 400 responses and one real analysis.
func pinnedDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := smallConfig()
	cfg.Scale = 1
	cfg.StoreDir = t.TempDir()
	cfg.FleetSelf = "http://replica-a.test"

	s0, ts0 := startServer(t, cfg, &fakePlanner{})
	if resp, _ := postBody(t, ts0.URL+"/v1/run", `{"pin":"disk"}`); resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("seeding the store: served %q", resp.Header.Get(ResultHeader))
	}
	stopServer(t, s0, ts0)

	gated := &fakePlanner{gate: make(chan struct{})}
	s, ts := startServer(t, cfg, routedPlanner{run: &fakePlanner{}, figure: gated, analysis: NewPlanner(cfg)})
	t.Cleanup(func() { stopServer(t, s, ts) })

	expect := func(path, body, class string) {
		t.Helper()
		resp, b := postBody(t, ts.URL+path, body)
		if got := resp.Header.Get(ResultHeader); resp.StatusCode != 200 || got != class {
			t.Fatalf("POST %s %s: status %d, served %q (%s), want %s", path, body, resp.StatusCode, got, b, class)
		}
	}
	expect("/v1/run", `{"pin":"disk"}`, "disk")
	expect("/v1/run", `{"pin":"cold"}`, "cold")
	expect("/v1/run", `{"pin":"cold"}`, "cached")
	if resp, _ := postBody(t, ts.URL+"/v1/run", ``); resp.StatusCode != 400 {
		t.Fatalf("empty body: status %d, want 400", resp.StatusCode)
	}

	const burst = 3
	classes := make([]string, burst)
	var wg sync.WaitGroup
	for i := range classes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postBody(t, ts.URL+"/v1/figure", `{"pin":"burst"}`)
			classes[i] = resp.Header.Get(ResultHeader)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := metricValue(scrapeMetricsz(t, ts.URL), "locsched_server_coalesced_total", "", "")
		if n == burst-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %v followers coalesced", n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.gate)
	wg.Wait()
	sort.Strings(classes)
	if got := strings.Join(classes, ","); got != "coalesced,coalesced,cold" {
		t.Fatalf("burst served %s", got)
	}

	expect("/v1/analysis", `{"workload":{"app":"MxM"},"cores":2}`, "cold")
	return ts
}

// getText fetches one GET endpoint's body.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pinChildEnv marks the fresh process TestStatszPinned runs itself in.
const pinChildEnv = "LOCSCHED_STATSZ_PIN_CHILD"

var uptimeRE = regexp.MustCompile(`"uptime_seconds": [^,\n]+`)

// TestStatszPinned pins the exact /statsz bytes of the scripted daemon,
// with only the uptime value normalised. The experiment section is
// process-wide, so the test runs itself in a fresh process, where only
// its own analysis request has touched that section.
func TestStatszPinned(t *testing.T) {
	if os.Getenv(pinChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStatszPinned$", "-test.count=1")
		cmd.Env = append(os.Environ(), pinChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh-process run: %v\n%s", err, out)
		}
		return
	}
	ts := pinnedDaemon(t)
	got := uptimeRE.ReplaceAllString(getText(t, ts.URL+"/statsz"), `"uptime_seconds": 0`)
	if got != pinnedStatsz {
		t.Fatalf("/statsz bytes changed:\n%s\nwant:\n%s", got, pinnedStatsz)
	}
}

// TestMetricszSeriesPinned pins the sorted # HELP and # TYPE lines of the
// scripted daemon's /metricsz: the name, help text and kind of every
// series.
func TestMetricszSeriesPinned(t *testing.T) {
	ts := pinnedDaemon(t)
	var lines []string
	for _, l := range strings.Split(getText(t, ts.URL+"/metricsz"), "\n") {
		if strings.HasPrefix(l, "# HELP ") || strings.HasPrefix(l, "# TYPE ") {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	if got := strings.Join(lines, "\n") + "\n"; got != pinnedSeries {
		t.Fatalf("/metricsz series changed:\n%s\nwant:\n%s", got, pinnedSeries)
	}
}

// pinnedStatsz is the scripted daemon's /statsz body.
const pinnedStatsz = `{
  "uptime_seconds": 0,
  "requests": 8,
  "cache_hits": 1,
  "coalesced": 2,
  "executions": 3,
  "rejected": 0,
  "timeouts": 0,
  "coalesce_timeouts": 0,
  "disk_hits": 1,
  "disk_writes": 3,
  "peer_hits": 0,
  "peer_errors": 0,
  "failures": 0,
  "bad_requests": 1,
  "queue_depth": 0,
  "queue_cap": 8,
  "inflight_keys": 0,
  "result_entries": 4,
  "result_bytes": 415,
  "persistent_store": {
    "enabled": true,
    "degraded": false,
    "store": {
      "entries": 4,
      "segments": 1,
      "disk_bytes": 699,
      "recovered_entries": 1,
      "lost_bytes": 0,
      "hits": 1,
      "misses": 5,
      "writes": 3,
      "write_errors": 0,
      "dropped_writes": 0,
      "read_errors": 0,
      "quarantined": 0,
      "retries": 0,
      "op_timeouts": 0,
      "evicted_segments": 0,
      "breaker": "closed",
      "breaker_trips": 0
    }
  },
  "fleet": {
    "enabled": true,
    "self": "http://replica-a.test",
    "members": [
      "http://replica-a.test"
    ],
    "peer_misses": 0,
    "peer_serves": 0,
    "replicated_in": 0,
    "replicated_out": 0,
    "replication_errors": 0
  },
  "experiment": {
    "MatrixHits": 0,
    "MatrixMisses": 1,
    "LSHits": 0,
    "LSMisses": 1,
    "LSMHits": 0,
    "LSMMisses": 0,
    "AnalysisEvictions": 0,
    "RunnerPoolHits": 0,
    "InternHits": 0
  }
}
`

// pinnedSeries is the scripted daemon's sorted /metricsz HELP and TYPE
// lines.
const pinnedSeries = `# HELP locsched_cache_disk_hits_total Responses served verified from the persistent store.
# HELP locsched_cache_memory_bytes Result cache stored body bytes.
# HELP locsched_cache_memory_entries Result cache entry count.
# HELP locsched_cache_memory_hits_total Responses served verbatim from the in-memory result cache.
# HELP locsched_experiment_analysis_evictions_total Whole-table drops of the workload family table.
# HELP locsched_experiment_intern_hits_total Content-equal workloads swapped for a canonical object family.
# HELP locsched_experiment_ls_hits_total LS-assignment analysis tier cache hits.
# HELP locsched_experiment_ls_misses_total LS-assignment analysis tier cache misses.
# HELP locsched_experiment_lsm_hits_total LSM-mapping analysis tier cache hits.
# HELP locsched_experiment_lsm_misses_total LSM-mapping analysis tier cache misses.
# HELP locsched_experiment_matrix_hits_total Sharing-matrix analysis tier cache hits.
# HELP locsched_experiment_matrix_misses_total Sharing-matrix analysis tier cache misses.
# HELP locsched_experiment_runner_pool_hits_total Simulations served a pooled runner.
# HELP locsched_fleet_peer_errors_total Failed peer fetches (down/slow/corrupt; recomputed locally).
# HELP locsched_fleet_peer_hits_total Responses served from verified peer-fetched bytes.
# HELP locsched_fleet_peer_misses_total Clean peer misses (owner answered 404; recomputed locally).
# HELP locsched_fleet_peer_serves_total Peer GETs this replica answered with bytes.
# HELP locsched_fleet_replicated_in_total Entries replicated into this replica by peers.
# HELP locsched_fleet_replicated_out_total Entries this replica replicated to their owners.
# HELP locsched_fleet_replication_errors_total Failed outbound replications (best-effort, dropped).
# HELP locsched_server_bad_requests_total 400s from unparsable or unresolvable requests.
# HELP locsched_server_coalesce_timeouts_total 504s suffered by coalesced followers specifically.
# HELP locsched_server_coalesce_wait_seconds Coalesced follower wait from join to shared result.
# HELP locsched_server_coalesced_total Requests attached to an identical in-flight execution.
# HELP locsched_server_execution_seconds Worker-pool job execution time.
# HELP locsched_server_executions_total Jobs actually run by the worker pool.
# HELP locsched_server_failures_total Executions that returned an error.
# HELP locsched_server_inflight_keys Distinct keys currently executing or queued (coalescer pending set).
# HELP locsched_server_queue_capacity Configured job queue bound.
# HELP locsched_server_queue_depth Jobs waiting in the bounded queue now.
# HELP locsched_server_queue_wait_seconds Admitted job wait from enqueue to worker dequeue.
# HELP locsched_server_rejected_total 429 admission-control rejections.
# HELP locsched_server_request_seconds End-to-end HTTP request latency.
# HELP locsched_server_requests_total Keyed-endpoint requests (run/figure/analysis).
# HELP locsched_server_responses_total Served responses by result class (X-Locsched-Result).
# HELP locsched_server_timeouts_total 504 per-request deadline expiries.
# HELP locsched_store_breaker_state Circuit breaker state: 0 closed, 1 half-open, 2 open.
# HELP locsched_store_breaker_trips_total Circuit breaker transitions into the open state.
# HELP locsched_store_degraded 1 while the configured persistent store is unavailable (open failed or breaker not closed).
# HELP locsched_store_disk_bytes Total indexed segment bytes on disk.
# HELP locsched_store_dropped_writes_total Writes skipped while the circuit breaker was open.
# HELP locsched_store_entries Currently indexed entry count.
# HELP locsched_store_evicted_segments_total Whole segments evicted by the byte budget.
# HELP locsched_store_get_seconds Persistent-store read latency (verified hit or miss).
# HELP locsched_store_hits_total Reads served with verified bytes.
# HELP locsched_store_lost_bytes_total Segment tail bytes discarded during crash recovery at Open.
# HELP locsched_store_misses_total Reads with no servable entry.
# HELP locsched_store_op_timeouts_total Operation attempts abandoned at the per-operation timeout.
# HELP locsched_store_put_seconds Persistent-store append latency (durable write, all retries).
# HELP locsched_store_quarantined_total Entries dropped because their bytes were corrupt or unreadable.
# HELP locsched_store_read_errors_total Reads that failed after all retries.
# HELP locsched_store_recovered_entries Entries rebuilt from disk at Open.
# HELP locsched_store_retries_total Re-attempted I/O operations.
# HELP locsched_store_segments Current segment file count.
# HELP locsched_store_write_errors_total Appends that failed after all retries.
# HELP locsched_store_write_through_total Responses successfully written through to the persistent store.
# HELP locsched_store_writes_total Successfully appended records.
# TYPE locsched_cache_disk_hits_total counter
# TYPE locsched_cache_memory_bytes gauge
# TYPE locsched_cache_memory_entries gauge
# TYPE locsched_cache_memory_hits_total counter
# TYPE locsched_experiment_analysis_evictions_total counter
# TYPE locsched_experiment_intern_hits_total counter
# TYPE locsched_experiment_ls_hits_total counter
# TYPE locsched_experiment_ls_misses_total counter
# TYPE locsched_experiment_lsm_hits_total counter
# TYPE locsched_experiment_lsm_misses_total counter
# TYPE locsched_experiment_matrix_hits_total counter
# TYPE locsched_experiment_matrix_misses_total counter
# TYPE locsched_experiment_runner_pool_hits_total counter
# TYPE locsched_fleet_peer_errors_total counter
# TYPE locsched_fleet_peer_hits_total counter
# TYPE locsched_fleet_peer_misses_total counter
# TYPE locsched_fleet_peer_serves_total counter
# TYPE locsched_fleet_replicated_in_total counter
# TYPE locsched_fleet_replicated_out_total counter
# TYPE locsched_fleet_replication_errors_total counter
# TYPE locsched_server_bad_requests_total counter
# TYPE locsched_server_coalesce_timeouts_total counter
# TYPE locsched_server_coalesce_wait_seconds histogram
# TYPE locsched_server_coalesced_total counter
# TYPE locsched_server_execution_seconds histogram
# TYPE locsched_server_executions_total counter
# TYPE locsched_server_failures_total counter
# TYPE locsched_server_inflight_keys gauge
# TYPE locsched_server_queue_capacity gauge
# TYPE locsched_server_queue_depth gauge
# TYPE locsched_server_queue_wait_seconds histogram
# TYPE locsched_server_rejected_total counter
# TYPE locsched_server_request_seconds histogram
# TYPE locsched_server_requests_total counter
# TYPE locsched_server_responses_total counter
# TYPE locsched_server_timeouts_total counter
# TYPE locsched_store_breaker_state gauge
# TYPE locsched_store_breaker_trips_total counter
# TYPE locsched_store_degraded gauge
# TYPE locsched_store_disk_bytes gauge
# TYPE locsched_store_dropped_writes_total counter
# TYPE locsched_store_entries gauge
# TYPE locsched_store_evicted_segments_total counter
# TYPE locsched_store_get_seconds histogram
# TYPE locsched_store_hits_total counter
# TYPE locsched_store_lost_bytes_total counter
# TYPE locsched_store_misses_total counter
# TYPE locsched_store_op_timeouts_total counter
# TYPE locsched_store_put_seconds histogram
# TYPE locsched_store_quarantined_total counter
# TYPE locsched_store_read_errors_total counter
# TYPE locsched_store_recovered_entries gauge
# TYPE locsched_store_retries_total counter
# TYPE locsched_store_segments gauge
# TYPE locsched_store_write_errors_total counter
# TYPE locsched_store_write_through_total counter
# TYPE locsched_store_writes_total counter
`
