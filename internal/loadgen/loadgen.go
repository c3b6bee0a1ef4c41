// Package loadgen is the load generator behind `locsched bench`. It
// replays a deterministic mixed scenario stream — fig6
// single-application cells, fig7-style concurrent mixes, an analysis
// call, and a whole-figure request — against locschedd instances over
// HTTP, measuring sustained requests/sec, latency percentiles and how
// the cache-hit rate climbs as the stream wraps around its distinct-key
// set. Server-side counts come from one source only: each daemon's
// /metricsz, scraped before and after the run and diffed.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locsched/internal/obs"
	"locsched/internal/server"
	"locsched/internal/store"
	"locsched/internal/workload"
)

// LoadConfig tunes one load-generation run.
type LoadConfig struct {
	// BaseURL is the target daemon, e.g. http://127.0.0.1:8077. Its
	// /metricsz endpoint is scraped before and after the run.
	BaseURL string
	// Concurrency is the number of client goroutines.
	Concurrency int
	// Requests is the total number of stream requests to send.
	Requests int
	// Scale is the workload scale the stream asks for (0 = daemon default).
	Scale int
	// Timeout bounds each HTTP request.
	Timeout time.Duration
	// WarmManifest, when non-empty, is the path of a cache manifest file
	// (see store.SaveManifest) whose replayable entries are re-sent
	// before the live stream: the bench warms the daemon with the
	// previous lifetime's realistic working set instead of a synthetic
	// one.
	WarmManifest string
}

// LoadReport is the outcome of one load-generation run.
type LoadReport struct {
	// Requests is the number of requests sent (warm and burst phases
	// included).
	Requests int
	// Errors counts non-2xx responses and transport failures.
	Errors int
	// Cold, Cached, Disk, Coalesced, and Peer count responses by
	// served-from class (the X-Locsched-Result header); Disk is the
	// persistent store's tier, populated on a warm start, and Peer is
	// fleet mode's owner-replica fetch.
	Cold, Cached, Disk, Coalesced, Peer int
	// Elapsed is the wall-clock of the whole run.
	Elapsed time.Duration
	// RPS is Requests / Elapsed.
	RPS float64
	// P50, P95, and P99 are per-request latency percentiles (nearest
	// rank) over every request of the run, hits and executions alike —
	// the serving-side view of how fast the engines answer. Zero when no
	// request completed.
	P50, P95, P99 time.Duration
	// HitRate is (Cached + Disk + Coalesced + Peer) / successful
	// responses: the share of requests that did not pay for a local
	// execution.
	HitRate float64
	// Server is this run's server-side view, read from /metricsz, so the
	// report — and the -expect-cache CI assertion built on it —
	// describes the replayed stream itself, not the daemon's lifetime.
	Server Scrape
}

// Scrape is one run's /metricsz view of the daemons it loaded. A fleet
// run holds every replica's samples, so each read sums across the
// fleet; the process-wide locsched_experiment_* series appear once.
type Scrape struct {
	// Delta is the after-run scrape minus the before-run scrape: the
	// counters and histograms this run added.
	Delta []obs.Sample
	// After is the after-run scrape, which gauges are read from.
	After []obs.Sample
}

// Counter returns this run's increase of the named counter, summed over
// every series whose labels include the given pairs.
func (s Scrape) Counter(name string, labels ...obs.Label) int64 {
	sum, _, _ := fold(s.Delta, name, labels)
	return int64(sum)
}

// Gauge returns the named gauge's after-run value summed over every
// daemon that exports it; ok is false when none does.
func (s Scrape) Gauge(name string) (v float64, ok bool) {
	sum, _, n := fold(s.After, name, nil)
	return sum, n > 0
}

// fold sums the named samples whose labels include the given pairs and
// tracks the largest single value; n counts the matches.
func fold(samples []obs.Sample, name string, labels []obs.Label) (sum, max float64, n int) {
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for _, l := range labels {
			if s.Label(l.Key) != l.Value {
				continue next
			}
		}
		sum += s.Value
		if n == 0 || s.Value > max {
			max = s.Value
		}
		n++
	}
	return sum, max, n
}

// Series the reports read by name.
const (
	executionsTotal = "locsched_server_executions_total"
	diskHitsTotal   = "locsched_cache_disk_hits_total"
	peerHitsTotal   = "locsched_fleet_peer_hits_total"
	storeDegraded   = "locsched_store_degraded"
	inflightKeys    = "locsched_server_inflight_keys"
)

// streamReq is one request of a replayed stream.
type streamReq struct {
	endpoint string
	body     []byte
}

// jsonReq encodes one request of a static shape.
func jsonReq(endpoint string, v any) streamReq {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // static request shapes; cannot fail
	}
	return streamReq{endpoint: endpoint, body: b}
}

// buildStream assembles the deterministic request stream: every Table 1
// application under the paper's four policies (fig6 cells), concurrent
// mixes |T| ∈ {2, 4, 6} under the four policies (fig7 cells), one
// analysis request, and one whole-figure request.
func buildStream(scale int) []streamReq {
	policies := []string{"RS", "RRS", "LS", "LSM"}
	var out []streamReq
	for _, app := range workload.Names() {
		for _, pol := range policies {
			out = append(out, jsonReq("/v1/run", server.RunRequest{Workload: server.WorkloadSpec{App: app, Scale: scale}, Policy: pol}))
		}
	}
	for _, mix := range []int{2, 4, 6} {
		for _, pol := range policies {
			out = append(out, jsonReq("/v1/run", server.RunRequest{Workload: server.WorkloadSpec{Mix: mix, Scale: scale}, Policy: pol}))
		}
	}
	out = append(out, jsonReq("/v1/analysis", server.AnalysisRequest{Workload: server.WorkloadSpec{Mix: 6, Scale: scale}}))
	out = append(out, jsonReq("/v1/figure", server.FigureRequest{Figure: "fig6", Scale: scale}))
	return out
}

// manifestRequests decodes a cache manifest file into the replayable
// requests recorded in its entries' metadata (endpoint + request
// body). Entries without replay metadata — foreign writers, cleared
// replay maps — are skipped silently: the manifest is advisory.
func manifestRequests(path string) ([]streamReq, error) {
	entries, err := store.LoadManifest(store.OSFS{}, path)
	if err != nil {
		return nil, err
	}
	var reqs []streamReq
	for _, e := range entries {
		endpoint, body, ok := server.DecodeReplayMeta(e.Meta)
		if !ok {
			continue
		}
		reqs = append(reqs, streamReq{endpoint: "/v1/" + endpoint, body: body})
	}
	return reqs, nil
}

// run is one load run against one or more daemons: the shared client,
// each daemon's before-run scrape, and the report its requests
// accumulate into.
type run struct {
	cfg    LoadConfig
	client *http.Client
	bases  []string
	before [][]obs.Sample
	start  time.Time

	mu   sync.Mutex
	rep  LoadReport
	lats []time.Duration
}

// begin applies cfg's defaults, scrapes every daemon's /metricsz, and
// starts the run's clock.
func begin(cfg LoadConfig, bases []string) (*run, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	r := &run{cfg: cfg, client: &http.Client{Timeout: cfg.Timeout}, bases: bases}
	for _, base := range bases {
		samples, err := r.scrape(base)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scraping %s/metricsz before the run: %w", base, err)
		}
		r.before = append(r.before, samples)
	}
	r.start = time.Now()
	return r, nil
}

// scrape fetches and parses one daemon's /metricsz exposition.
func (r *run) scrape(base string) ([]obs.Sample, error) {
	resp, err := r.client.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint answered %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(body)
}

// post sends one request to base, records its latency and served-from
// class, and returns the response body (nil when the request failed).
func (r *run) post(base string, req streamReq) []byte {
	start := time.Now()
	resp, err := r.client.Post(base+req.endpoint, "application/json", bytes.NewReader(req.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	lat := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.Requests++
	r.lats = append(r.lats, lat)
	if err != nil {
		r.rep.Errors++
		return nil
	}
	switch resp.Header.Get(server.ResultHeader) {
	case "cold":
		r.rep.Cold++
	case "cached":
		r.rep.Cached++
	case "disk":
		r.rep.Disk++
	case "coalesced":
		r.rep.Coalesced++
	case "peer":
		r.rep.Peer++
	}
	return body
}

// replay sends cfg.Requests indices of stream, request i to
// bases[i%len(bases)], claimed in order off a shared cursor by
// cfg.Concurrency clients, and returns each index's response body.
// Repeats of the same stream slot are ordered — index i+len(stream)
// starts only after index i completed — so whether a repeat is a hit
// never depends on how long the first execution of a slow key (the
// whole-figure request) takes: against a single instance the repeat is
// a cache hit, against a fleet the prior completion's synchronous owner
// replication guarantees a peer or cache hit, and the fleet
// differential stays an equality at any request count. Distinct slots
// remain fully concurrent.
func (r *run) replay(stream []streamReq) [][]byte {
	n := r.cfg.Requests
	bodies := make([][]byte, n)
	// rounds[slot] counts completed requests of that stream slot; a
	// client holding round k of a slot waits for rounds[slot] == k.
	// Waits only ever look backwards in index order (earlier indices
	// are always claimed first), so there is no circular wait.
	rounds := make([]int, len(stream))
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for range r.cfg.Concurrency {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1))
				if idx >= n {
					return
				}
				slot, round := idx%len(stream), idx/len(stream)
				mu.Lock()
				for rounds[slot] < round {
					cond.Wait()
				}
				mu.Unlock()
				bodies[idx] = r.post(r.bases[idx%len(r.bases)], stream[slot])
				// The slot's round advances on every outcome, errors
				// included — a waiter blocked on a failed predecessor
				// must not deadlock.
				mu.Lock()
				rounds[slot]++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return bodies
}

// finish stops the clock, scrapes every daemon again, and completes the
// report: hit rate, throughput, latency percentiles and the /metricsz
// deltas. The locsched_experiment_* series count process-wide work, so
// of in-process replicas sharing one process only the first daemon's
// are kept.
func (r *run) finish() (*LoadReport, error) {
	// A daemon's drain waits up to five seconds on a connection that
	// never carried a request, and the client's pool can hold such
	// spare dials; release them with the run.
	defer r.client.CloseIdleConnections()
	rep := r.rep
	rep.Elapsed = time.Since(r.start)
	for i, base := range r.bases {
		after, err := r.scrape(base)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scraping %s/metricsz after the run: %w", base, err)
		}
		delta := obs.DeltaSamples(after, r.before[i])
		if i > 0 {
			after, delta = withoutExperiment(after), withoutExperiment(delta)
		}
		rep.Server.After = append(rep.Server.After, after...)
		rep.Server.Delta = append(rep.Server.Delta, delta...)
	}
	if ok := rep.Cold + rep.Cached + rep.Disk + rep.Coalesced + rep.Peer; ok > 0 {
		rep.HitRate = float64(rep.Cached+rep.Disk+rep.Coalesced+rep.Peer) / float64(ok)
	}
	if rep.Elapsed > 0 {
		rep.RPS = float64(rep.Requests) / rep.Elapsed.Seconds()
	}
	lats := r.lats
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.P50 = percentile(lats, 50)
	rep.P95 = percentile(lats, 95)
	rep.P99 = percentile(lats, 99)
	return &rep, nil
}

// withoutExperiment drops the locsched_experiment_* samples.
func withoutExperiment(samples []obs.Sample) []obs.Sample {
	var out []obs.Sample
	for _, s := range samples {
		if !strings.HasPrefix(s.Name, "locsched_experiment_") {
			out = append(out, s)
		}
	}
	return out
}

// RunLoad replays the mixed scenario stream against one daemon and
// reports throughput, cache behaviour and the daemon's own counts for
// the run. A warm-manifest replay, when configured, goes first; then a
// coalesce burst; then the stream.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: needs a base URL")
	}
	var warm []streamReq
	if cfg.WarmManifest != "" {
		var err error
		if warm, err = manifestRequests(cfg.WarmManifest); err != nil {
			return nil, fmt.Errorf("loadgen: warm manifest: %w", err)
		}
	}
	base := strings.TrimSuffix(cfg.BaseURL, "/")
	r, err := begin(cfg, []string{base})
	if err != nil {
		return nil, err
	}

	// Warm replay: re-send the requests a prior lifetime's cache
	// manifest describes, so the daemon's caches hold a realistic warm
	// set instead of whatever this stream happens to touch first.
	for _, req := range warm {
		r.post(base, req)
	}

	// Coalesce burst: the leader goes first, and the other clients send
	// the identical request once the daemon shows it in flight, so they
	// join its execution instead of racing it. Each round's workload and
	// quantum carry a per-run wall-clock nonce plus the round, so the
	// key is cold on the *daemon* (not just within this process) and no
	// round finds its workload family's analysis already memoised. This
	// is the run's only deliberate source of coalescing: the stream's
	// ordered repeats are cache hits.
	burstBase := 10_000 + time.Now().UnixNano()%1_000_000_000
	for round := 0; round < 5 && r.coalesced() == 0; round++ {
		nonce := burstBase + int64(round)
		burst := jsonReq("/v1/run", server.RunRequest{
			Workload: server.WorkloadSpec{TaskSet: burstTaskSet(nonce)},
			Policy:   "LSM",
			Config:   server.ConfigSpec{Quantum: nonce},
		})
		leader := make(chan struct{})
		go func() {
			defer close(leader)
			r.post(base, burst)
		}()
		r.awaitInflight(base, leader)
		var wg sync.WaitGroup
		for range r.cfg.Concurrency - 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.post(base, burst)
			}()
		}
		wg.Wait()
		<-leader
	}

	r.replay(buildStream(cfg.Scale))
	return r.finish()
}

// burstTaskSet is the coalesce burst's workload: eight producer/consumer
// tasks whose array sizes derive from nonce, so each round is a workload
// family the daemon has not analysed yet. Their ~400k accesses keep the
// leader's execution in the millisecond range even on a warm daemon, long
// enough for the followers to join it.
func burstTaskSet(nonce int64) json.RawMessage {
	task := fmt.Sprintf(`{"name":"burst","arrays":[{"name":"A","elems":%d},{"name":"B","elems":%[1]d}],"procs":[`+
		`{"name":"produce","iter_lo":0,"iter_hi":16384,"compute":1,"refs":[{"array":"A","kind":"w","stride":1}],"deps":[]},`+
		`{"name":"consume","iter_lo":0,"iter_hi":16384,"compute":1,"refs":[{"array":"A","kind":"r","stride":1},{"array":"B","kind":"w","stride":1}],"deps":[0]}]}`,
		16384+nonce%65536)
	return json.RawMessage(`{"tasks":[` + strings.Repeat(task+",", 7) + task + `]}`)
}

// awaitInflight polls base's /metricsz until the daemon reports a key in
// flight (locsched_server_inflight_keys ≥ 1) or done closes — the leader
// already finished, so the round cannot coalesce.
func (r *run) awaitInflight(base string, done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		samples, err := r.scrape(base)
		if v, _, _ := fold(samples, inflightKeys, nil); err != nil || v >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// coalesced reads the run's coalesced-response count so far.
func (r *run) coalesced() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rep.Coalesced
}

// percentile returns the nearest-rank p-th percentile of an
// ascending-sorted latency slice (zero for an empty one). The computed
// rank is clamped to [1, len(sorted)] on both ends: tiny streams (one
// or two samples) and percentiles above 100 must index a real sample,
// never a misordered or out-of-range one.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Format renders a load report for humans.
func (r *LoadReport) Format() string {
	var b strings.Builder
	c := r.Server.Counter
	fmt.Fprintf(&b, "load: %d requests in %.2fs = %.1f req/s (%d errors)\n",
		r.Requests, r.Elapsed.Seconds(), r.RPS, r.Errors)
	fmt.Fprintf(&b, "latency: p50 %.2fms, p95 %.2fms, p99 %.2fms\n",
		float64(r.P50.Microseconds())/1e3, float64(r.P95.Microseconds())/1e3, float64(r.P99.Microseconds())/1e3)
	fmt.Fprintf(&b, "served: %d cold, %d cached, %d disk, %d coalesced, %d peer (hit rate %.1f%%)\n",
		r.Cold, r.Cached, r.Disk, r.Coalesced, r.Peer, 100*r.HitRate)
	fmt.Fprintf(&b, "server (this run): %d executions, %d cache hits, %d coalesced, %d rejected, %d timeouts (%d coalesced)\n",
		c(executionsTotal), c("locsched_cache_memory_hits_total"), c("locsched_server_coalesced_total"),
		c("locsched_server_rejected_total"), c("locsched_server_timeouts_total"), c("locsched_server_coalesce_timeouts_total"))
	if degraded, ok := r.Server.Gauge(storeDegraded); ok {
		state := "ok"
		if degraded > 0 {
			state = "DEGRADED"
		}
		g := func(name string) int64 {
			v, _ := r.Server.Gauge(name)
			return int64(v)
		}
		_, breaker, _ := fold(r.Server.After, "locsched_store_breaker_state", nil)
		fmt.Fprintf(&b, "store (%s): %d disk hits, %d writes this run; %d entries / %d segments / %d B on disk; %d quarantined, %d retries, breaker %s\n",
			state, c(diskHitsTotal), c("locsched_store_write_through_total"),
			g("locsched_store_entries"), g("locsched_store_segments"), g("locsched_store_disk_bytes"),
			c("locsched_store_quarantined_total"), c("locsched_store_retries_total"),
			[]string{store.BreakerClosed, store.BreakerHalfOpen, store.BreakerOpen}[int(breaker)])
	}
	fmt.Fprintf(&b, "experiment caches: analysis %d/%d/%d hits (matrix/ls/lsm), runner pool %d, intern %d\n",
		c("locsched_experiment_matrix_hits_total"), c("locsched_experiment_ls_hits_total"), c("locsched_experiment_lsm_hits_total"),
		c("locsched_experiment_runner_pool_hits_total"), c("locsched_experiment_intern_hits_total"))
	for _, h := range []struct{ label, name string }{
		{"queue wait", "locsched_server_queue_wait_seconds"},
		{"coalesce wait", "locsched_server_coalesce_wait_seconds"},
		{"execution", "locsched_server_execution_seconds"},
		{"request", "locsched_server_request_seconds"},
	} {
		snap, _ := obs.HistogramFromSamples(r.Server.Delta, h.name)
		fmt.Fprintf(&b, "server %s (this run): %d observed, p50 %.2fms, p95 %.2fms, p99 %.2fms\n",
			h.label, snap.Count, snap.Quantile(0.50)*1e3, snap.Quantile(0.95)*1e3, snap.Quantile(0.99)*1e3)
	}
	return b.String()
}
