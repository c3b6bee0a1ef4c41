package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsched/internal/obs"
	"locsched/internal/store"
)

// Server-level persistence tests: the daemon warm-starts from the store
// across a restart with byte-identical responses, keeps serving when the
// store misbehaves, and reports the degraded state distinctly from
// draining.

// startServer builds a server (without registering cleanup, so tests can
// restart) and returns it with its httptest front end.
func startServer(t *testing.T, cfg Config, p Planner) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// stopServer tears down a startServer pair in order.
func stopServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// getStats fetches and decodes /statsz.
func getStats(t *testing.T, url string) StatsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWarmRestartFromDisk: a response computed before a restart is
// served from disk after it — byte-identical, counted as a disk hit,
// and promoted into memory so the next repeat is a memory hit.
func TestWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.StoreDir = dir

	s1, ts1 := startServer(t, cfg, &fakePlanner{})
	resp, cold := postBody(t, ts1.URL+"/v1/run", `{"persist":1}`)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("cold: status %d, served %q", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if snap := getStats(t, ts1.URL); snap.DiskWrites != 1 || !snap.Store.Enabled || snap.Store.Degraded {
		t.Fatalf("pre-restart store stats: %+v", snap.Store)
	}
	stopServer(t, s1, ts1)

	// "Restart": a fresh server over the same directory and a planner
	// that would produce the same bytes if it ran — but it must not run.
	p2 := &fakePlanner{}
	s2, ts2 := startServer(t, cfg, p2)
	defer stopServer(t, s2, ts2)

	resp, warm := postBody(t, ts2.URL+"/v1/run", `{"persist":1}`)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "disk" {
		t.Fatalf("warm: status %d, served %q, want disk", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("disk body differs from cold body: %q vs %q", cold, warm)
	}
	if n := p2.execs.Load(); n != 0 {
		t.Fatalf("restarted server recomputed %d times, want 0", n)
	}
	// The disk hit promoted the entry: the next repeat hits memory.
	resp, again := postBody(t, ts2.URL+"/v1/run", `{"persist":1}`)
	if resp.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("post-promotion served %q, want cached", resp.Header.Get(ResultHeader))
	}
	if !bytes.Equal(cold, again) {
		t.Fatal("promoted body differs from cold body")
	}
	snap := getStats(t, ts2.URL)
	if snap.DiskHits != 1 || snap.CacheHits != 1 || snap.Executions != 0 {
		t.Fatalf("warm stats: disk_hits=%d cache_hits=%d executions=%d", snap.DiskHits, snap.CacheHits, snap.Executions)
	}
}

// TestStoreFaultsDegradeNotFail: when the disk starts erroring, requests
// keep succeeding from the compute path, the breaker opens, and the
// daemon reports degraded on /healthz (200) and /statsz.
func TestStoreFaultsDegradeNotFail(t *testing.T) {
	dir := t.TempDir()
	ffs := store.NewFaultFS(store.OSFS{})
	st, err := store.Open(dir, store.Options{
		FS:               ffs,
		RetryBase:        time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // stays open for the test's lifetime
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cfg := smallConfig()
	cfg.Store = st
	s, ts := testServer(t, cfg, &fakePlanner{})

	// Healthy first: the store works and healthz is plain ok.
	resp, _ := postBody(t, ts.URL+"/v1/run", `{"h":1}`)
	if resp.StatusCode != 200 {
		t.Fatalf("healthy request: %d", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("healthy healthz: %d", hr.StatusCode)
	}
	if s.storeDegraded() {
		t.Fatal("degraded before any fault")
	}

	// Break the disk. Writes fail through their retries, the breaker
	// trips, and the response is still a 200 cold compute.
	ffs.FailOps(store.OpWrite, store.OpSync, store.OpOpen)
	resp, body := postBody(t, ts.URL+"/v1/run", `{"h":2}`)
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("request during disk failure: %d", resp.StatusCode)
	}
	if !s.storeDegraded() {
		t.Fatalf("breaker did not open: %+v", st.Stats())
	}

	// healthz: degraded, still 200 — a broken disk must not fail probes.
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 || health.Status != "degraded" {
		t.Fatalf("degraded healthz: status %d body %q", hr.StatusCode, health.Status)
	}
	snap := getStats(t, ts.URL)
	if !snap.Store.Enabled || !snap.Store.Degraded || snap.Store.Store.Breaker == store.BreakerClosed {
		t.Fatalf("degraded statsz store section: %+v", snap.Store)
	}
	if v := metricValue(scrapeMetricsz(t, ts.URL), "locsched_store_degraded", "", ""); v != 1 {
		t.Fatalf("locsched_store_degraded = %v, want 1", v)
	}

	// With the breaker open the next write is dropped. Both surfaces
	// report every failure counter, with equal values.
	if resp, _ := postBody(t, ts.URL+"/v1/run", `{"h":3}`); resp.StatusCode != 200 {
		t.Fatalf("request with the breaker open: %d", resp.StatusCode)
	}
	samples := scrapeMetricsz(t, ts.URL)
	ss := getStats(t, ts.URL).Store.Store
	if ss.WriteErrors == 0 || ss.DroppedWrites == 0 {
		t.Fatalf("faults not counted on /statsz: %+v", ss)
	}
	for name, want := range map[string]int64{
		"locsched_store_write_errors_total":     ss.WriteErrors,
		"locsched_store_dropped_writes_total":   ss.DroppedWrites,
		"locsched_store_read_errors_total":      ss.ReadErrors,
		"locsched_store_op_timeouts_total":      ss.OpTimeouts,
		"locsched_store_evicted_segments_total": ss.EvictedSegments,
	} {
		if got := metricValue(samples, name, "", ""); got != float64(want) {
			t.Errorf("%s = %v in the metrics exposition, /statsz says %d", name, got, want)
		}
	}
}

// TestInjectedStoreMetrics: a store handed to the daemon through
// Config.Store publishes its locsched_store_* series on the daemon's
// /metricsz, timed operations included, when it was opened without a
// registry. One opened with a registry publishes its sampled series on
// both — the daemon's agreeing with /statsz — and keeps its operation
// timers on its own.
func TestInjectedStoreMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := smallConfig()
	cfg.Store = st
	_, ts := testServer(t, cfg, &fakePlanner{})
	if resp, _ := postBody(t, ts.URL+"/v1/run", `{"i":1}`); resp.StatusCode != 200 {
		t.Fatalf("request: %d", resp.StatusCode)
	}
	samples := scrapeMetricsz(t, ts.URL)
	if got := metricValue(samples, "locsched_store_writes_total", "", ""); got != 1 {
		t.Errorf("locsched_store_writes_total = %v on /metricsz, want 1", got)
	}
	if got := metricValue(samples, "locsched_store_put_seconds_count", "", ""); got != 1 {
		t.Errorf("locsched_store_put_seconds_count = %v on /metricsz, want 1", got)
	}

	reg := obs.NewRegistry()
	own, err := store.Open(t.TempDir(), store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()
	cfg.Store = own
	_, ts2 := testServer(t, cfg, &fakePlanner{})
	if resp, _ := postBody(t, ts2.URL+"/v1/run", `{"i":2}`); resp.StatusCode != 200 {
		t.Fatalf("request: %d", resp.StatusCode)
	}
	samples = scrapeMetricsz(t, ts2.URL)
	var stats map[string]any
	if err := json.Unmarshal([]byte(getText(t, ts2.URL+"/statsz")), &stats); err != nil {
		t.Fatal(err)
	}
	leaves := make(map[string]float64)
	numericLeaves("", stats, leaves)
	checked := 0
	for path, name := range statszSeries {
		if !strings.HasPrefix(path, "persistent_store.store.") {
			continue
		}
		checked++
		if got, want := metricValue(samples, name, "", ""), leaves[path]; got != want {
			t.Errorf("daemon given a store with its own registry: /metricsz %s = %v, /statsz %s = %v", name, got, path, want)
		}
	}
	if checked == 0 || leaves["persistent_store.store.writes"] != 1 {
		t.Errorf("checked %d store series, /statsz writes = %v, want 1", checked, leaves["persistent_store.store.writes"])
	}
	if got := metricValue(samples, "locsched_store_breaker_state", "", ""); got != 0 {
		t.Errorf("locsched_store_breaker_state = %v on the daemon's /metricsz, want 0", got)
	}
	if got := metricValue(samples, "locsched_store_put_seconds_count", "", ""); got != -1 {
		t.Errorf("the store's timers moved to the daemon's registry: put count %v", got)
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	own2, err := obs.ParseExposition(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(own2, "locsched_store_writes_total", "", ""); got != 1 {
		t.Errorf("locsched_store_writes_total = %v on the store's registry, want 1", got)
	}
}

// TestStoreOpenFailureServesMemoryOnly: an unusable store directory
// must not fail startup — the daemon serves memory-only and reports
// degraded with the open error in /statsz.
func TestStoreOpenFailureServesMemoryOnly(t *testing.T) {
	// A regular file where the store directory should be.
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.StoreDir = bad
	s, ts := testServer(t, cfg, &fakePlanner{})

	resp, _ := postBody(t, ts.URL+"/v1/run", `{"m":1}`)
	if resp.StatusCode != 200 {
		t.Fatalf("memory-only request: %d", resp.StatusCode)
	}
	if resp2, _ := postBody(t, ts.URL+"/v1/run", `{"m":1}`); resp2.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("memory cache broken without store: served %q", resp2.Header.Get(ResultHeader))
	}
	if !s.storeDegraded() {
		t.Fatal("open failure not reported as degraded")
	}
	snap := getStats(t, ts.URL)
	if !snap.Store.Enabled || !snap.Store.Degraded || snap.Store.OpenError == "" {
		t.Fatalf("open-failure store section: %+v", snap.Store)
	}
	if v := metricValue(scrapeMetricsz(t, ts.URL), "locsched_store_degraded", "", ""); v != 1 {
		t.Fatalf("locsched_store_degraded = %v, want 1", v)
	}
}

// TestDrainingBeatsDegraded: a draining daemon answers 503 draining even
// when its store is also degraded — shutdown wins over degradation.
func TestDrainingBeatsDegraded(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.StoreDir = bad
	s, ts := startServer(t, cfg, &fakePlanner{})
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("draining+degraded healthz: status %d body %q, want 503 draining", hr.StatusCode, health.Status)
	}
}
