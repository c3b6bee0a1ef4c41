package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"locsched/internal/experiment"
)

// realServer builds a server over the production experiment planner.
func realServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Scale = 1 // small workloads: integration cells stay fast
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// TestIntegrationColdCachedCoalescedIdentical is the acceptance test of
// the serving tentpole: with the real experiment backend, N concurrent
// identical requests plus a later repeat produce exactly one simulation
// execution, and the cold, coalesced, and cached response bodies are all
// byte-identical.
func TestIntegrationColdCachedCoalescedIdentical(t *testing.T) {
	s, ts := realServer(t)
	const clients = 6
	req := `{"workload":{"app":"MxM"},"policy":"LSM"}`

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	served := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postBody(t, ts.URL+"/v1/run", req)
			bodies[i], served[i] = b, resp.Header.Get(ResultHeader)
		}(i)
	}
	wg.Wait()

	if n := s.stats.Executions.Value(); n != 1 {
		t.Fatalf("executions = %d, want exactly 1 for %d identical concurrent requests", n, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	classes := map[string]int{}
	for _, c := range served {
		classes[c]++
	}
	if classes["cold"] != 1 {
		t.Fatalf("served classes %v: want exactly one cold", classes)
	}
	if classes["coalesced"]+classes["cached"] != clients-1 {
		t.Fatalf("served classes %v: every follower must be coalesced or cached", classes)
	}

	// The repeat after completion is a pure cache hit, still identical.
	resp, b := postBody(t, ts.URL+"/v1/run", req)
	if resp.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("repeat served %q, want cached", resp.Header.Get(ResultHeader))
	}
	if !bytes.Equal(b, bodies[0]) {
		t.Fatalf("cached body differs from cold body:\n%s\nvs\n%s", b, bodies[0])
	}
	if n := s.stats.Executions.Value(); n != 1 {
		t.Fatalf("repeat re-executed: executions = %d", n)
	}

	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("response is not a RunResponse: %v", err)
	}
	if rr.Policy != "LSM" || rr.Cycles <= 0 {
		t.Fatalf("implausible result %+v", rr)
	}
}

// TestIntegrationTaskSetReload: the inline task_set path (LoadApps
// format) is content-addressed — re-sending the same JSON text is a
// cache hit even though the daemon rebuilds fresh graph objects when
// planning the request.
func TestIntegrationTaskSetReload(t *testing.T) {
	s, ts := realServer(t)
	req := `{"workload":{"task_set":{"tasks":[
	  {"name":"producer-consumer",
	   "arrays":[{"name":"A","elems":4096},{"name":"B","elems":2048}],
	   "procs":[
	     {"name":"produce","iter_lo":0,"iter_hi":1024,"compute":2,
	      "refs":[{"array":"A","kind":"w","stride":1,"offset":0}],"deps":[]},
	     {"name":"consume","iter_lo":0,"iter_hi":1024,"compute":1,
	      "refs":[{"array":"A","kind":"r","stride":1,"offset":0},
	              {"array":"B","kind":"w","stride":1,"offset":0}],"deps":[0]}]},
	  {"name":"scanner",
	   "arrays":[{"name":"C","elems":8192}],
	   "procs":[{"name":"scan","iter_lo":0,"iter_hi":2048,"compute":1,
	      "refs":[{"array":"C","kind":"r","stride":2,"offset":1}],"deps":[]}]}
	]}},"policy":"LS"}`

	resp1, b1 := postBody(t, ts.URL+"/v1/run", req)
	if resp1.StatusCode != 200 {
		t.Fatalf("task_set run failed: %d %s", resp1.StatusCode, b1)
	}
	resp2, b2 := postBody(t, ts.URL+"/v1/run", req)
	if resp2.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("task_set reload served %q, want cached (content addressing must see through fresh objects)",
			resp2.Header.Get(ResultHeader))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("task_set reload body differs")
	}
	if n := s.stats.Executions.Value(); n != 1 {
		t.Fatalf("task_set executions = %d, want 1", n)
	}
}

// TestIntegrationFigureMatchesHarness: /v1/figure's bytes equal
// experiment.WriteJSON over the same figure and configuration — the
// invariant the CI smoke job checks against the CLI end to end.
func TestIntegrationFigureMatchesHarness(t *testing.T) {
	_, ts := realServer(t)
	resp, got := postBody(t, ts.URL+"/v1/figure", `{"figure":"fig6"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("figure failed: %d %s", resp.StatusCode, got)
	}

	cfg := experiment.DefaultConfig()
	cfg.Workload.Scale = 1
	cfg.Workers = 1
	tab, err := experiment.Figure6(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiment.WriteJSON(&want, tab); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("figure response differs from harness output:\n%s\nvs\n%s", got, want.Bytes())
	}
}

// TestIntegrationAnalysis: /v1/analysis returns a complete assignment
// and repeats are cached.
func TestIntegrationAnalysis(t *testing.T) {
	s, ts := realServer(t)
	req := `{"workload":{"mix":3},"cores":4}`
	resp, b := postBody(t, ts.URL+"/v1/analysis", req)
	if resp.StatusCode != 200 {
		t.Fatalf("analysis failed: %d %s", resp.StatusCode, b)
	}
	var ar AnalysisResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Cores != 4 || len(ar.PerCore) != 4 || ar.Processes <= 0 {
		t.Fatalf("implausible analysis %+v", ar)
	}
	scheduled := 0
	for _, core := range ar.PerCore {
		scheduled += len(core)
	}
	if scheduled != ar.Processes {
		t.Fatalf("assignment schedules %d of %d processes", scheduled, ar.Processes)
	}
	resp2, b2 := postBody(t, ts.URL+"/v1/analysis", req)
	if resp2.Header.Get(ResultHeader) != "cached" || !bytes.Equal(b, b2) {
		t.Fatal("analysis repeat not served verbatim from cache")
	}
	if n := s.stats.Executions.Value(); n != 1 {
		t.Fatalf("analysis executions = %d, want 1", n)
	}
}

// TestIntegrationBadRequests: resolution failures are client errors.
func TestIntegrationBadRequests(t *testing.T) {
	_, ts := realServer(t)
	for name, body := range map[string]string{
		"unknown policy":        `{"workload":{"app":"MxM"},"policy":"XX"}`,
		"unknown app":           `{"workload":{"app":"NoSuchApp"},"policy":"LS"}`,
		"empty workload":        `{"policy":"LS"}`,
		"two workloads":         `{"workload":{"app":"MxM","mix":2},"policy":"LS"}`,
		"unknown field":         `{"workload":{"app":"MxM"},"policy":"LS","bogus":1}`,
		"bad deadline":          `{"workload":{"app":"MxM"},"policy":"LS","deadline_ms":-5}`,
		"bad config":            `{"workload":{"app":"MxM"},"policy":"LS","config":{"cores":-1}}`,
		"negative scale":        `{"workload":{"app":"MxM","scale":-3},"policy":"LS"}`,
		"oversized scale":       `{"workload":{"app":"MxM","scale":1000},"policy":"LS"}`,
		"oversized mix":         `{"workload":{"mix":1000000},"policy":"LS"}`,
		"oversized cores":       `{"workload":{"app":"MxM"},"policy":"LS","config":{"cores":2000000000}}`,
		"oversized product":     `{"workload":{"mix":2},"policy":"LS","config":{"cores":4096,"cache_kb":65536}}`,
		"scale on task_set":     `{"workload":{"task_set":{"tasks":[{"name":"t","arrays":[{"name":"A","elems":64}],"procs":[{"iter_lo":0,"iter_hi":8,"compute":1,"refs":[{"array":"A"}],"deps":[]}]}]},"scale":2},"policy":"LS"}`,
		"unknown figure":        `{"figure":"fig9"}`,
		"negative xlpoint":      `{"figure":"fig7xl","xl_points":[{"cores":-2,"tasks":1}]}`,
		"oversized xlpoint":     `{"figure":"fig7xl","xl_points":[{"cores":8192,"tasks":4}]}`,
		"xl core-cache product": `{"figure":"fig7xl","xl_points":[{"cores":4096,"tasks":4}],"config":{"cache_kb":65536}}`,
		"xlpoints on fig6":      `{"figure":"fig6","xl_points":[{"cores":8,"tasks":2}]}`,
	} {
		endpoint := "/v1/run"
		var probe map[string]any
		json.Unmarshal([]byte(body), &probe)
		if _, isFigure := probe["figure"]; isFigure {
			endpoint = "/v1/figure"
		}
		resp, b := postBody(t, ts.URL+endpoint, body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, b)
		}
	}
}
