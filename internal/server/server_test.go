package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePlanner keys every request on its raw body and lets tests gate
// execution to hold jobs in-flight deterministically.
type fakePlanner struct {
	execs   atomic.Int64
	started atomic.Int64  // Run entries, counted before blocking on gate
	gate    chan struct{} // nil = run immediately; otherwise Run blocks on it
	fail    bool          // Run returns an error
	panics  bool          // Run panics
}

func (p *fakePlanner) Plan(endpoint string, body []byte) (*Job, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	key := endpoint + "|" + string(body)
	return &Job{
		Key: key,
		Run: func() ([]byte, error) {
			p.started.Add(1)
			if p.gate != nil {
				<-p.gate
			}
			p.execs.Add(1)
			if p.panics {
				panic("scripted panic")
			}
			if p.fail {
				return nil, fmt.Errorf("scripted failure")
			}
			return []byte("resp:" + key), nil
		},
	}, nil
}

// testServer builds a server over the scripted planner plus an httptest
// front end, and tears both down in order.
func testServer(t *testing.T, cfg Config, p Planner) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close() // waits for in-flight handlers, so Shutdown's queue close is safe
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// smallConfig returns tight test bounds.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 8
	cfg.RequestTimeout = 5 * time.Second
	return cfg
}

func postBody(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestColdThenCached: a repeat of an identical request is served from
// the result cache with byte-identical body.
func TestColdThenCached(t *testing.T) {
	p := &fakePlanner{}
	s, ts := testServer(t, smallConfig(), p)

	resp1, b1 := postBody(t, ts.URL+"/v1/run", `{"a":1}`)
	if resp1.StatusCode != 200 || resp1.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("first: status %d, served %q", resp1.StatusCode, resp1.Header.Get(ResultHeader))
	}
	resp2, b2 := postBody(t, ts.URL+"/v1/run", `{"a":1}`)
	if resp2.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("second: served %q, want cached", resp2.Header.Get(ResultHeader))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached body differs from cold body: %q vs %q", b1, b2)
	}
	if n := p.execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
	if hits := s.stats.CacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestCoalescedSingleExecution: N concurrent identical requests execute
// exactly once; every response body is byte-identical; followers are
// classed coalesced.
func TestCoalescedSingleExecution(t *testing.T) {
	const clients = 10
	p := &fakePlanner{gate: make(chan struct{})}
	s, ts := testServer(t, smallConfig(), p)

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	served := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postBody(t, ts.URL+"/v1/run", `{"heavy":true}`)
			bodies[i], served[i] = b, resp.Header.Get(ResultHeader)
		}(i)
	}
	// Wait until every follower has attached, then release the gate.
	deadline := time.Now().Add(5 * time.Second)
	for s.stats.Coalesced.Value() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers coalesced", s.stats.Coalesced.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(p.gate)
	wg.Wait()

	if n := p.execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want exactly 1 for %d identical requests", n, clients)
	}
	cold, coalesced := 0, 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body %q differs from %q", i, bodies[i], bodies[0])
		}
		switch served[i] {
		case "cold":
			cold++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("client %d served %q", i, served[i])
		}
	}
	if cold != 1 || coalesced != clients-1 {
		t.Fatalf("served classes: %d cold, %d coalesced; want 1 and %d", cold, coalesced, clients-1)
	}
}

// TestAdmissionControl429: with a single blocked worker and a queue of
// one, a third distinct request is rejected with 429 + Retry-After and
// never buffered.
func TestAdmissionControl429(t *testing.T) {
	p := &fakePlanner{gate: make(chan struct{})}
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s, ts := testServer(t, cfg, p)

	deadline := time.Now().Add(5 * time.Second)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	results := make(chan *http.Response, 2)
	launch := func(body string) {
		go func() {
			resp, _ := postBody(t, ts.URL+"/v1/run", body)
			results <- resp
		}()
	}
	// First request: admitted and picked up by the (blocked) worker.
	launch(`{"k":"a"}`)
	waitFor("worker to hold the first job", func() bool { return p.started.Load() == 1 })
	// Second request: admitted, fills the queue.
	launch(`{"k":"b"}`)
	waitFor("second job to queue", func() bool { return len(s.jobs) == 1 })

	resp, _ := postBody(t, ts.URL+"/v1/run", `{"k":"c"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if s.stats.Rejected.Value() != 1 {
		t.Errorf("rejected = %d, want 1", s.stats.Rejected.Value())
	}

	close(p.gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.StatusCode != 200 {
			t.Errorf("admitted request %d finished with %d", i, r.StatusCode)
		}
	}
	if n := p.execs.Load(); n != 2 {
		t.Errorf("executions = %d, want 2 (the rejected request must not run)", n)
	}
}

// TestDeadline504: a request whose deadline expires while its job is
// held gets 504; the execution still completes and seeds the cache.
func TestDeadline504(t *testing.T) {
	p := &fakePlanner{gate: make(chan struct{})}
	cfg := smallConfig()
	cfg.RequestTimeout = 50 * time.Millisecond
	s, ts := testServer(t, cfg, p)

	resp, _ := postBody(t, ts.URL+"/v1/run", `{"slow":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if s.stats.Timeouts.Value() != 1 {
		t.Errorf("timeouts = %d, want 1", s.stats.Timeouts.Value())
	}
	close(p.gate)
	// The abandoned execution must still land in the result cache.
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned execution never cached")
		}
		time.Sleep(time.Millisecond)
	}
	resp2, _ := postBody(t, ts.URL+"/v1/run", `{"slow":1}`)
	if resp2.Header.Get(ResultHeader) != "cached" {
		t.Errorf("retry served %q, want cached", resp2.Header.Get(ResultHeader))
	}
}

// TestCoalesceTimeoutCounter: when a coalesced follower's deadline
// expires, the 504 is counted in both timeouts and coalesce_timeouts;
// the leader's own 504 only increments timeouts. Regression test for
// the follower-specific counter.
func TestCoalesceTimeoutCounter(t *testing.T) {
	p := &fakePlanner{gate: make(chan struct{})}
	cfg := smallConfig()
	cfg.RequestTimeout = 150 * time.Millisecond
	s, ts := testServer(t, cfg, p)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postBody(t, ts.URL+"/v1/run", `{"held":1}`)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("leader status = %d, want 504", resp.StatusCode)
		}
	}()
	// Wait until the leader's job is actually executing, then attach a
	// follower to the same key.
	deadline := time.Now().Add(5 * time.Second)
	for p.started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := postBody(t, ts.URL+"/v1/run", `{"held":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("follower status = %d, want 504", resp.StatusCode)
	}
	wg.Wait()
	close(p.gate)

	if got := s.stats.Coalesced.Value(); got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
	if got := s.stats.Timeouts.Value(); got != 2 {
		t.Errorf("timeouts = %d, want 2", got)
	}
	if got := s.stats.CoalesceTimeouts.Value(); got != 1 {
		t.Errorf("coalesce_timeouts = %d, want 1 (follower only)", got)
	}
}

// TestErrorsAndMethods: plan errors are 400, run errors are 500 and are
// not cached, GET on keyed endpoints is 405.
func TestErrorsAndMethods(t *testing.T) {
	p := &fakePlanner{fail: true}
	s, ts := testServer(t, smallConfig(), p)

	resp, _ := postBody(t, ts.URL+"/v1/run", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postBody(t, ts.URL+"/v1/run", `{"x":1}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("failing run status = %d, want 500", resp.StatusCode)
	}
	if s.cache.len() != 0 {
		t.Error("failed execution was cached")
	}
	getResp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", getResp.StatusCode)
	}
}

// TestPanicRecovered: a panicking execution costs its request a 500 and
// leaves the daemon serving.
func TestPanicRecovered(t *testing.T) {
	p := &fakePlanner{panics: true}
	s, ts := testServer(t, smallConfig(), p)

	resp, b := postBody(t, ts.URL+"/v1/run", `{"boom":1}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), "panicked") {
		t.Fatalf("panicking job: status %d body %q, want 500 mentioning the panic", resp.StatusCode, b)
	}
	if s.stats.Failures.Value() != 1 {
		t.Errorf("failures = %d, want 1", s.stats.Failures.Value())
	}
	p.panics = false
	resp, _ = postBody(t, ts.URL+"/v1/run", `{"after":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: next request got %d", resp.StatusCode)
	}
}

// TestHealthAndStats: healthz is ok until drain; statsz serves counters.
func TestHealthAndStats(t *testing.T) {
	p := &fakePlanner{}
	s, ts := testServer(t, smallConfig(), p)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}

	postBody(t, ts.URL+"/v1/run", `{"s":1}`)
	postBody(t, ts.URL+"/v1/run", `{"s":1}`)
	st := s.snapshot()
	if st.Requests != 2 || st.Executions != 1 || st.CacheHits != 1 {
		t.Fatalf("snapshot %+v: want 2 requests, 1 execution, 1 hit", st)
	}
	if st.QueueCap != smallConfig().QueueDepth {
		t.Errorf("queue cap = %d, want %d", st.QueueCap, smallConfig().QueueDepth)
	}
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"executions": 1`) {
		t.Errorf("statsz missing executions counter: %s", b)
	}
}

// TestShutdownDrains: Shutdown completes queued work, then healthz
// reports draining and further Shutdowns are no-ops.
func TestShutdownDrains(t *testing.T) {
	p := &fakePlanner{}
	s, err := New(smallConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	postBody(t, ts.URL+"/v1/run", `{"d":1}`)
	ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", rec.Code)
	}
}

// TestResultCacheBounds: LRU eviction under the entry and byte budgets.
func TestResultCacheBounds(t *testing.T) {
	c := newResultCache(2, 100)
	c.put("a", []byte("aaaa"))
	c.put("b", []byte("bbbb"))
	c.get("a") // a is now MRU
	c.put("c", []byte("cccc"))
	if _, ok := c.get("b"); ok {
		t.Error("b survived entry-bound eviction despite being LRU")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a was evicted despite being MRU")
	}

	c = newResultCache(10, 8)
	c.put("x", []byte("12345"))
	c.put("y", []byte("1234"))
	if _, ok := c.get("x"); ok {
		t.Error("x survived byte-bound eviction")
	}
	if got := c.size(); got != 4 {
		t.Errorf("size = %d, want 4", got)
	}
	c.put("huge", bytes.Repeat([]byte("z"), 9))
	if _, ok := c.get("huge"); ok {
		t.Error("over-budget body was cached")
	}
	if _, ok := c.get("y"); !ok {
		t.Error("rejecting the over-budget body evicted y")
	}
}

// TestConfigValidate rejects each bad bound.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"queue":   func(c *Config) { c.QueueDepth = 0 },
		"workers": func(c *Config) { c.Workers = -1 },
		"cache":   func(c *Config) { c.CacheEntries = 0 },
		"bytes":   func(c *Config) { c.CacheBytes = 0 },
		"timeout": func(c *Config) { c.RequestTimeout = 0 },
		"drain":   func(c *Config) { c.DrainTimeout = 0 },
		"body":    func(c *Config) { c.MaxBodyBytes = 0 },
		"scale":   func(c *Config) { c.Scale = -1 },
		"store":   func(c *Config) { c.StoreBytes = -1 },
	} {
		cfg := good
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: bad config validated", name)
		}
	}
}
