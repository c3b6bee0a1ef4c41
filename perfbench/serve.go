package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/obs"
	"locsched/internal/server"
	"locsched/internal/store"
)

// blockSize is the number of completed requests one serve-mix pass
// (the unit behind wall_s and rps) covers.
const blockSize = 1000

// daemon is an in-process locsched daemon over loopback HTTP with a
// persistent store in its own directory.
type daemon struct {
	dir  string
	st   *store.Store
	srv  *server.Server
	url  string
	done chan error
}

// openDaemon opens a store under dir, injects it into a daemon with the
// default cache bounds and one worker per CPU, and serves it on an
// ephemeral loopback port. It returns once /healthz answers. The store
// skips its per-append fsync: on a shared virtual disk the flush latency
// drifts under sustained writes and swamped every other serving cost
// (README.md).
func openDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	cfg := server.DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	cfg.Store = st
	srv, err := server.New(cfg, nil)
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &daemon{dir: dir, st: st, srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	for i := 0; ; i++ {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 500 {
			d.close()
			return nil, fmt.Errorf("daemon did not become healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close drains the daemon, waits for its server loop to exit, closes
// the store and removes its directory.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is one completed client request, kept small because a run
// holds hundreds of thousands.
type reply struct {
	done     time.Duration // since the measured phase started
	latency  float64       // seconds; +Inf when the request failed
	accesses int64
	tier     string // X-Locsched-Result, "error" on failure
}

// answer is what the checker keeps of a key's first answer: a hash of
// its bytes and the simulated statistics it reports.
type answer struct {
	sum              [sha256.Size]byte
	accesses, cycles int64
}

// checker holds the first answer to every key; every later answer must
// be byte-identical to it.
type checker struct {
	mu    sync.Mutex
	first map[int]answer
}

// check compares body with the key's first answer (recording it when
// it is the first) and returns the simulated accesses it reports.
func (c *checker) check(key int, body []byte) (int64, error) {
	sum := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[key]; ok {
		if prev.sum != sum {
			return 0, fmt.Errorf("key %d answered with different bytes", key)
		}
		return prev.accesses, nil
	}
	var rr server.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return 0, fmt.Errorf("key %d: decoding answer: %w", key, err)
	}
	if rr.Hits+rr.Misses <= 0 {
		return 0, fmt.Errorf("key %d: answer simulated no accesses", key)
	}
	c.first[key] = answer{sum: sum, accesses: rr.Hits + rr.Misses, cycles: rr.Cycles}
	return rr.Hits + rr.Misses, nil
}

// runServeMix drives a fresh daemon with closed-loop clients. A traced
// run first measures an untraced baseline in a child process of half the
// length, then serves the traced half itself.
func runServeMix(o opts) (*result, error) {
	res := &result{Layers: make(map[string]float64), Info: make(map[string]any)}
	seconds := o.Seconds
	var baseWall float64
	if o.Trace {
		seconds /= 2
		var err error
		if baseWall, err = untracedBaseline(o, seconds); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	root := tr.start("bench.serve_mix", 0)
	keys, d, err := serveSetup(o.Seed, res, tr, root)
	if err != nil {
		return nil, err
	}
	err = serve(o.Seed, seconds, keys, d, res, tr, root)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	res.Spans = tr.snapshot()
	if o.Trace {
		res.Layers["bench.trace_overhead_pct"] = 100 * (median(unitSeconds(res.Units))/baseWall - 1)
		res.Info["untraced_wall_s"] = baseWall
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

func unitSeconds(us []unit) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.Seconds
	}
	return out
}

// serveSetup generates the key set and opens the daemon and its store,
// setupRepeats times, and keeps the last daemon.
func serveSetup(seed int64, res *result, tr *tracer, parent int) ([][]byte, *daemon, error) {
	sp := tr.start("bench.setup", parent)
	defer tr.end(sp)
	tmp, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return nil, nil, err
	}
	var keys [][]byte
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
		}
		dir := filepath.Join(tmp, fmt.Sprintf("serve-%d-%d", os.Getpid(), i))
		t := time.Now()
		if keys, err = serveKeys(); err != nil {
			return nil, nil, err
		}
		err := timed(tr, "server.open", sp, func() (err error) {
			d, err = openDaemon(dir)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		res.Setup = append(res.Setup, time.Since(t).Seconds())
	}
	return keys, d, nil
}

// serve runs the measured phase: one closed-loop client per CPU sends
// the seeded stream for the given time.
func serve(seed int64, seconds float64, keys [][]byte, d *daemon, res *result, tr *tracer, parent int) error {
	clients := runtime.NumCPU()
	tp := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp, Timeout: 120 * time.Second}
	ck := &checker{first: make(map[int]answer)}

	var scrapeBefore []obs.Sample
	if err := timed(tr, "server.metricsz", parent, func() (err error) {
		scrapeBefore, err = scrape(hc, d.url)
		return err
	}); err != nil {
		return err
	}
	storeBefore, expBefore := d.st.Stats(), experiment.Stats()

	s := newStream(seed, keys, clients)
	phase := tr.start("bench.pass", parent)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	replies := make([][]reply, clients)
	var problems sync.Map
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := s.next()
				t := time.Now()
				rp, err := send(hc, d.url, req, ck)
				done := time.Now()
				rp.done = done.Sub(start)
				if err != nil {
					problems.Store(err.Error(), true)
					rp.latency, rp.tier = math.Inf(1), "error"
				} else {
					rp.latency = done.Sub(t).Seconds()
				}
				tr.add("server."+rp.tier, phase, t, done)
				replies[c] = append(replies[c], rp)
			}
		}(c)
	}
	wg.Wait()
	tr.end(phase)

	var scrapeAfter []obs.Sample
	if err := timed(tr, "server.metricsz", parent, func() (err error) {
		scrapeAfter, err = scrape(hc, d.url)
		return err
	}); err != nil {
		return err
	}
	sp := tr.start("store.stats", parent)
	storeAfter := d.st.Stats()
	tr.end(sp)
	expAfter := statsDelta(experiment.Stats(), expBefore)

	var all []reply
	for _, rs := range replies {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	tiers := make(map[string][]float64)
	for _, rp := range all {
		res.Attempted++
		res.Ops = append(res.Ops, rp.latency)
		tiers[rp.tier] = append(tiers[rp.tier], rp.latency)
		if rp.tier == "error" {
			res.Failed++
		}
	}
	problems.Range(func(k, _ any) bool {
		if len(res.Problems) < 20 {
			res.Problems = append(res.Problems, k.(string))
		}
		return true
	})
	res.Units = blocks(all)
	res.SavingPct = serveSaving(keys, ck)

	ok := float64(len(all) - len(tiers["error"]))
	l := res.Layers
	for _, tier := range []string{"cached", "disk", "cold"} {
		l["server."+tier+"_p50_ms"] = ms(nearestRank(sortedCopy(tiers[tier]), 50))
	}
	coldP99, _ := highPercentile(sortedCopy(tiers["cold"]), 99)
	l["server.cold_p99_ms"] = ms(coldP99)
	l["server.hit_ratio"] = ratio(float64(len(tiers["cached"])+len(tiers["disk"])+len(tiers["coalesced"])), ok)
	l["server.disk_share"] = ratio(float64(len(tiers["disk"])), ok)
	l["server.coalesced"] = float64(len(tiers["coalesced"]))
	delta := obs.DeltaSamples(scrapeAfter, scrapeBefore)
	if h, ok := obs.HistogramFromSamples(delta, "locsched_server_queue_wait_seconds"); ok {
		l["server.queue_wait_p99_ms"] = ms(h.Quantile(0.99))
	}
	if h, ok := obs.HistogramFromSamples(delta, "locsched_server_execution_seconds"); ok {
		l["server.execution_p50_ms"] = ms(h.Quantile(0.50))
	}
	l["store.writes"] = float64(storeAfter.Writes - storeBefore.Writes)
	l["store.hits"] = float64(storeAfter.Hits - storeBefore.Hits)
	l["store.disk_bytes"] = float64(storeAfter.DiskBytes)
	l["experiment.analysis_hit_ratio"] = analysisHitRatio(expAfter)
	l["experiment.runner_pool_hits"] = float64(expAfter.RunnerPoolHits)
	for tier, xs := range tiers {
		res.Info["responses_"+tier] = len(xs)
	}
	sorted := sortedCopy(res.Ops)
	tail := make(map[string]float64)
	for _, p := range []float64{90, 95, 98, 99, 99.5} {
		tail[strconv.FormatFloat(p, 'f', -1, 64)] = ms(nearestRank(sorted, p))
	}
	res.Info["latency_ms_by_percentile"] = tail
	res.Info["fresh_keys"] = s.fresh
	res.Info["keys_answered"] = len(ck.first)
	return nil
}

// send posts one request and checks its answer.
func send(hc *http.Client, url string, req request, ck *checker) (reply, error) {
	resp, err := hc.Post(url+"/v1/run", "application/json", bytes.NewReader(req.Body))
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	acc, err := ck.check(req.Key, body)
	if err != nil {
		return reply{}, err
	}
	return reply{tier: resp.Header.Get("X-Locsched-Result"), accesses: acc}, nil
}

// blocks cuts the completions, in completion order, into passes of
// blockSize requests; a run too short for one full block is one pass.
func blocks(all []reply) []unit {
	var us []unit
	var prev time.Duration
	for i := 0; i+blockSize <= len(all); i += blockSize {
		var acc int64
		for _, rp := range all[i : i+blockSize] {
			acc += rp.accesses
		}
		end := all[i+blockSize-1].done
		us = append(us, unit{Seconds: (end - prev).Seconds(), Ops: blockSize, Accesses: acc})
		prev = end
	}
	if len(us) == 0 && len(all) > 0 {
		var acc int64
		for _, rp := range all {
			acc += rp.accesses
		}
		us = append(us, unit{Seconds: all[len(all)-1].done.Seconds(), Ops: len(all), Accesses: acc})
	}
	return us
}

// serveSaving is the total-makespan saving of LSM over RRS across the
// fixed keys the run answered under both policies with the same
// workload and configuration.
func serveSaving(keys [][]byte, ck *checker) float64 {
	type pair struct{ lsm, rrs int64 }
	groups := make(map[string]*pair)
	for k, body := range keys {
		var rr server.RunRequest
		if json.Unmarshal(body, &rr) != nil {
			continue
		}
		a, ok := ck.first[k]
		cyc := a.cycles
		pol := rr.Policy
		if !ok || (pol != "lsm" && pol != "rrs") {
			continue
		}
		rr.Policy = ""
		g, _ := json.Marshal(rr)
		p := groups[string(g)]
		if p == nil {
			p = &pair{}
			groups[string(g)] = p
		}
		if pol == "lsm" {
			p.lsm = cyc
		} else {
			p.rrs = cyc
		}
	}
	var lsm, rrs float64
	for _, p := range groups {
		if p.lsm > 0 && p.rrs > 0 {
			lsm += float64(p.lsm)
			rrs += float64(p.rrs)
		}
	}
	return 100 * (1 - ratio(lsm, rrs))
}

func scrape(hc *http.Client, url string) ([]obs.Sample, error) {
	resp, err := hc.Get(url + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(b)
}

// untracedBaseline runs this workload untraced in a child process for
// the given time and returns its wall_s.
func untracedBaseline(o opts, seconds float64) (float64, error) {
	_, stdout, err := runSelf("--workload", o.Workload, "--seed", strconv.FormatInt(o.Seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0",
		"--out", filepath.Join(o.Out, "baseline"))
	if err != nil {
		return 0, fmt.Errorf("untraced baseline: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	last := lines[len(lines)-1]
	var line struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return 0, fmt.Errorf("untraced baseline output: %w", err)
	}
	if !line.Correct {
		return 0, fmt.Errorf("untraced baseline failed its output checks")
	}
	return line.Metrics["wall_s"].Value, nil
}
