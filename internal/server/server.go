package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"locsched/internal/fleet"
	"locsched/internal/obs"
	"locsched/internal/store"
)

// errSaturated is the admission-control rejection: the job queue is full
// and the request was not buffered. Clients should honor Retry-After.
var errSaturated = errors.New("server: job queue saturated")

// ResultHeader is the response header classifying how a keyed request
// was served: "cold" (this request's execution), "cached" (memory
// result cache), "disk" (persistent store, CRC-verified), "coalesced"
// (attached to an identical in-flight execution), or "peer" (fetched
// CRC-verified from the key's owner replica in fleet mode). It is a
// header precisely so all the bodies stay byte-identical.
const ResultHeader = "X-Locsched-Result"

// task pairs an admitted job with the pending call its waiters block
// on, carrying the admitting request's trace and enqueue time so the
// worker can attribute queue wait and execution to the right request.
type task struct {
	job      *Job
	call     *call[[]byte]
	trace    *obs.Trace
	enqueued time.Time
}

// Server is the serving daemon: HTTP handlers feeding a bounded job
// queue over a worker pool, fronted by a singleflight coalescer, a
// content-addressed in-memory result cache, and (optionally) the
// disk-backed persistent store beneath it. Build with New, serve with
// ListenAndServe/Serve or mount Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	planner Planner
	cache   *resultCache
	flight  *coalescer[[]byte]
	jobs    chan *task
	stats   counters
	started time.Time
	mux     *http.ServeMux

	// obs is the observability state (registry, logger, histograms);
	// handler is the mux wrapped in the tracing/logging middleware.
	obs     *serverObs
	handler http.Handler

	// store is the persistent tier under the LRU (nil when disabled or
	// when opening it failed — storeErr holds why). storeOwned marks a
	// store opened by New, which Shutdown then closes; an injected
	// cfg.Store stays open for its owner.
	store      *store.Store
	storeErr   error
	storeOwned bool

	// ring and peers are the fleet layer (nil when FleetSelf is unset):
	// the consistent-hash key→owner map and the peer-fetch/replication
	// client.
	ring  *fleet.Ring
	peers *fleet.Client

	// metaMu guards replayMeta: key → endpoint NUL request-body, the
	// opaque replay blob SaveManifest persists so bench can rebuild the
	// warm set's requests. Bounded; cleared wholesale when full.
	metaMu     sync.Mutex
	replayMeta map[string][]byte

	httpMu   sync.Mutex
	httpSrv  *http.Server
	draining chan struct{}
	workers  sync.WaitGroup
	stopOnce sync.Once
}

// New builds a Server with started workers. planner == nil uses the
// production experiment-backed planner. A configured-but-unusable store
// directory does not fail construction: the daemon serves memory-only
// and reports degraded, because a broken disk must cost warm starts,
// not availability.
func New(cfg Config, planner Planner) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if planner == nil {
		planner = NewPlanner(cfg)
	}
	s := &Server{
		cfg:      cfg,
		planner:  planner,
		cache:    newResultCache(cfg.CacheEntries, cfg.CacheBytes),
		flight:   newCoalescer[[]byte](),
		jobs:     make(chan *task, cfg.QueueDepth),
		started:  time.Now(),
		draining: make(chan struct{}),
		obs:      newServerObs(cfg.Logger),
	}
	s.obs.reg.Bind(&s.stats)
	switch {
	case cfg.Store != nil:
		// An injected store publishes its sampled series here, like a
		// store the daemon opens itself, whether or not it was opened
		// with Options.Metrics (its timers stay on that registry).
		s.store = cfg.Store
		s.store.RegisterMetrics(s.obs.reg)
	case cfg.StoreDir != "":
		st, err := store.Open(cfg.StoreDir, store.Options{MaxBytes: cfg.StoreBytes, Metrics: s.obs.reg})
		if err != nil {
			s.storeErr = err
		} else {
			s.store, s.storeOwned = st, true
		}
	}
	if cfg.FleetSelf != "" {
		s.ring = fleet.NewRing(cfg.FleetSelf, cfg.FleetPeers)
		s.peers = fleet.NewClient(cfg.PeerTimeout, cfg.PeerTransport)
		s.peers.SetMetrics(s.obs.reg)
	}
	if s.store != nil {
		s.replayMeta = make(map[string][]byte)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/run", s.keyedHandler("run"))
	s.mux.HandleFunc("/v1/figure", s.keyedHandler("figure"))
	s.mux.HandleFunc("/v1/analysis", s.keyedHandler("analysis"))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	if s.ring != nil {
		// Registered only in fleet mode: a single instance keeps exactly
		// the pre-fleet route set and request path.
		s.mux.HandleFunc("/v1/peer/", s.handlePeer)
	}
	s.mountObsEndpoints()
	s.registerGauges()
	s.handler = s.withObs(s.mux)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the server's HTTP handler (for tests and embedding),
// with the tracing/logging middleware already applied.
func (s *Server) Handler() http.Handler { return s.handler }

// worker drains the job queue: each task executes at most once, fills
// the result cache (and writes through to the persistent store) on
// success, and resolves its call so every waiter — leader and coalesced
// followers alike — receives the same bytes. Execution wall time is
// recorded as the entry's reconstruction cost for cost-aware eviction.
// In fleet mode a computed entry this replica does not own is also
// replicated to its owner — synchronously, before the call completes,
// so by the time any waiter sees the response the owner can already
// serve the bytes to the rest of the fleet.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.jobs {
		wait := time.Since(t.enqueued)
		s.obs.QueueWaitSeconds.Observe(wait.Seconds())
		t.trace.Event("queue_wait", wait)
		start := time.Now()
		body, err := runJob(t.job)
		elapsed := time.Since(start)
		cost := elapsed.Nanoseconds()
		s.obs.ExecutionSeconds.Observe(elapsed.Seconds())
		t.trace.Event("execution", elapsed, slog.Bool("failed", err != nil))
		s.stats.Executions.Add(1)
		if err != nil {
			s.stats.Failures.Add(1)
		} else {
			s.cache.putCost(t.job.Key, body, cost)
			sp := t.trace.Start("store_write")
			s.storePut(t.job.Key, body, cost)
			sp.End()
			// The replication context carries the trace so the owner's
			// access log shows the same id the user request carried.
			s.replicateToOwner(obs.Into(context.Background(), t.trace), t.job.Key, body, cost)
		}
		s.flight.complete(t.job.Key, t.call, body, err)
	}
}

// replicateToOwner writes a locally computed entry through to its owner
// replica when this replica is not the owner. Best-effort: a failed
// replication is counted and dropped — it costs the fleet a future
// duplicate recompute, never correctness.
func (s *Server) replicateToOwner(ctx context.Context, key string, body []byte, cost int64) {
	if s.ring == nil {
		return
	}
	owner := s.ring.Owner(key)
	if owner == s.ring.Self() {
		return
	}
	sp := obs.From(ctx).Start("peer_replicate")
	sp.SetAttr(slog.String("owner", owner))
	defer sp.End()
	if err := s.peers.Replicate(ctx, owner, key, body, cost); err != nil {
		s.stats.ReplicationErrors.Add(1)
		return
	}
	s.stats.ReplicatedOut.Add(1)
}

// storePut writes a completed response through to the persistent store,
// best-effort: the store's own retry/backoff/breaker machinery absorbs
// failures, and a dropped write only costs a future warm start.
func (s *Server) storePut(key string, body []byte, cost int64) {
	if s.store == nil {
		return
	}
	if err := s.store.PutCost(key, body, cost); err == nil {
		s.stats.DiskWrites.Add(1)
	}
}

// storeGet consults the persistent tier under the memory cache. A hit
// is CRC-verified by the store and promoted — with its recorded cost —
// into the LRU so repeats are served from memory.
func (s *Server) storeGet(key string) ([]byte, bool) {
	body, cost, ok := s.storeGetCost(key)
	if !ok {
		return nil, false
	}
	s.stats.DiskHits.Add(1)
	s.cache.putCost(key, body, cost)
	return body, true
}

// storeGetCost is the raw persistent-tier read (no promotion, no hit
// counter) shared by storeGet and the peer-serving handler.
func (s *Server) storeGetCost(key string) ([]byte, int64, bool) {
	if s.store == nil {
		return nil, 0, false
	}
	return s.store.GetWithCost(key)
}

// storeDegraded reports whether a configured persistent store is
// currently unavailable: it failed to open, or its circuit breaker is
// not closed. The daemon keeps serving (memory + recompute); /healthz
// surfaces the state as "degraded".
func (s *Server) storeDegraded() bool {
	if s.storeErr != nil {
		return true
	}
	if s.store == nil {
		return false
	}
	return s.store.Stats().Breaker != store.BreakerClosed
}

// runJob executes a job, converting a panic into an execution error: a
// single malformed workload must cost its own request a 500, never the
// whole long-lived daemon (and its cache, and every other in-flight
// request).
func runJob(j *Job) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("server: execution panicked: %v", r)
		}
	}()
	return j.Run()
}

// keyedHandler builds the handler for one cacheable POST endpoint: plan
// → result cache → coalescer → bounded queue → wait with deadline.
func (s *Server) keyedHandler(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.Requests.Add(1)
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s requires POST", r.URL.Path))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.stats.BadRequests.Add(1)
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			s.writeError(w, status, fmt.Errorf("server: reading body: %w", err))
			return
		}
		tr := obs.From(r.Context())
		sp := tr.Start("planner_resolve")
		job, err := s.planner.Plan(endpoint, body)
		sp.End()
		if err != nil {
			s.stats.BadRequests.Add(1)
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		s.recordReplayMeta(job.Key, endpoint, body)

		sp = tr.Start("cache_memory")
		cached, hit := s.cache.get(job.Key)
		sp.SetAttr(slog.Bool("hit", hit))
		sp.End()
		if hit {
			s.stats.CacheHits.Add(1)
			s.writeBody(w, "cached", cached)
			return
		}
		// Persistent tier: a warm-started daemon serves disk entries
		// (verified, then promoted into the LRU) instead of recomputing.
		sp = tr.Start("cache_disk")
		body2, hit := s.storeGet(job.Key)
		sp.SetAttr(slog.Bool("hit", hit))
		sp.End()
		if hit {
			s.writeBody(w, "disk", body2)
			return
		}

		c, leader := s.flight.join(job.Key)
		served := "coalesced"
		if leader {
			// Re-check the cache after winning leadership: an identical
			// request may have completed (cache.put, then coalescer
			// entry removed) between our miss above and the join, and
			// executing again would break the exactly-once guarantee.
			// Completing the call with the cached bytes also serves any
			// followers that attached to this generation.
			if cached, ok := s.cache.get(job.Key); ok {
				s.flight.complete(job.Key, c, cached, nil)
				s.stats.CacheHits.Add(1)
				s.writeBody(w, "cached", cached)
				return
			}
			// Fleet: if another replica owns this key, ask it before
			// computing — one peer round-trip against a warm owner beats a
			// full recompute. Only the coalescing leader pays the fetch;
			// followers inherit whatever it finds. Every failure mode
			// (down, slow, corrupt, clean miss) hedges to local recompute,
			// so the fleet layer can never turn a servable request into an
			// error.
			sp = tr.Start("cache_peer")
			peerBody, cost, ok := s.peerFetch(r.Context(), job.Key)
			sp.SetAttr(slog.Bool("hit", ok))
			sp.End()
			if ok {
				s.cache.putCost(job.Key, peerBody, cost)
				s.flight.complete(job.Key, c, peerBody, nil)
				s.writeBody(w, "peer", peerBody)
				return
			}
			served = "cold"
			select {
			case s.jobs <- &task{job: job, call: c, trace: tr, enqueued: time.Now()}:
			default:
				// Admission control: the queue is full. The call must
				// still complete, or followers that joined between our
				// join and now would hang until their deadlines.
				s.flight.complete(job.Key, c, nil, errSaturated)
			}
		} else {
			s.stats.Coalesced.Add(1)
		}

		timeout := s.cfg.RequestTimeout
		if job.Deadline > 0 && job.Deadline < timeout {
			timeout = job.Deadline
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		waitStart := time.Now()
		select {
		case <-c.done:
			if !leader {
				// Only followers time this: a leader's wait is already
				// decomposed into queue wait + execution by the worker.
				d := time.Since(waitStart)
				s.obs.CoalesceWaitSeconds.Observe(d.Seconds())
				tr.Event("coalesce_wait", d)
			}
			switch {
			case errors.Is(c.err, errSaturated):
				s.stats.Rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusTooManyRequests, c.err)
			case c.err != nil:
				s.writeError(w, http.StatusInternalServerError, c.err)
			default:
				s.writeBody(w, served, c.val)
			}
		case <-ctx.Done():
			// The execution (if any) continues and will populate the
			// result cache; only this waiter gives up. Timed-out
			// coalesced followers are counted separately — they paid a
			// 504 without ever owning an execution, which is invisible
			// in the aggregate timeout counter alone.
			s.stats.Timeouts.Add(1)
			if !leader {
				s.stats.CoalesceTimeouts.Add(1)
			}
			s.writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("server: request deadline exceeded after %v (result may be cached on retry)", timeout))
		}
	}
}

// peerFetch consults the key's owner replica when this replica is not
// the owner. ok is true only for a CRC-verified peer hit; clean misses
// and every failure mode report false (and the appropriate counter) so
// the caller recomputes locally.
func (s *Server) peerFetch(ctx context.Context, key string) ([]byte, int64, bool) {
	if s.ring == nil {
		return nil, 0, false
	}
	owner := s.ring.Owner(key)
	if owner == s.ring.Self() {
		return nil, 0, false
	}
	body, cost, err := s.peers.Fetch(ctx, owner, key)
	switch {
	case err == nil:
		s.stats.PeerHits.Add(1)
		return body, cost, true
	case errors.Is(err, fleet.ErrNotFound):
		s.stats.PeerMisses.Add(1)
	default:
		s.stats.PeerErrors.Add(1)
	}
	return nil, 0, false
}

// maxPeerBodyBytes caps inbound peer replication bodies. Response
// bodies are not bounded by cfg.MaxBodyBytes (that caps requests), so
// the peer endpoint carries its own generous bound.
const maxPeerBodyBytes = 64 << 20

// handlePeer serves the fleet peer protocol on /v1/peer/<escaped-key>:
// GET returns this replica's local bytes for the key (memory or
// persistent store only — an owner never recomputes on behalf of a
// peer; a miss is a clean 404 and the asking replica computes), PUT is
// write-through replication of bytes a non-owner computed. Both
// directions carry the Castagnoli CRC and the entry's reconstruction
// cost in headers, and a PUT whose bytes fail their CRC is rejected —
// corruption stops at the first hop.
func (s *Server) handlePeer(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/peer/")
	if key == "" || strings.Contains(key, "/") {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: malformed peer key"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		body, cost, ok := s.cache.getCost(key)
		if !ok {
			body, cost, ok = s.storeGetCost(key)
			if ok {
				// Promote: the owner is about to be asked for this key by
				// every replica that misses it.
				s.cache.putCost(key, body, cost)
			}
		}
		if !ok {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no local entry for key"))
			return
		}
		s.stats.PeerServes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(fleet.HeaderCRC, fleet.Checksum(body))
		w.Header().Set(fleet.HeaderCost, strconv.FormatInt(cost, 10))
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerBodyBytes))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: reading replicated body: %w", err))
			return
		}
		if fleet.Checksum(body) != r.Header.Get(fleet.HeaderCRC) {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: replicated bytes fail CRC verification"))
			return
		}
		cost, _ := strconv.ParseInt(r.Header.Get(fleet.HeaderCost), 10, 64)
		if cost < 0 {
			cost = 0
		}
		s.cache.putCost(key, body, cost)
		s.storePut(key, body, cost)
		s.stats.ReplicatedIn.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: peer endpoint requires GET or PUT"))
	}
}

// SetFleetMembers replaces the ring membership at runtime (self is
// always retained). It is safe during live traffic — in-flight requests
// routed under the old membership just complete against the old owner
// or recompute locally — and a no-op when fleet mode is off.
func (s *Server) SetFleetMembers(members []string) {
	if s.ring != nil {
		s.ring.SetMembers(members)
	}
}

// maxReplayMeta bounds the replay-metadata map; past it the map is
// cleared wholesale (like the planner memos — the manifest is advisory,
// so losing replay blobs for old keys is acceptable).
const maxReplayMeta = 4096

// recordReplayMeta remembers a key's endpoint and request body so the
// shutdown manifest can describe how to replay the entry (bench warm
// sets). Only active with a persistent store.
func (s *Server) recordReplayMeta(key, endpoint string, body []byte) {
	if s.replayMeta == nil {
		return
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if _, ok := s.replayMeta[key]; ok {
		return
	}
	if len(s.replayMeta) >= maxReplayMeta {
		s.replayMeta = make(map[string][]byte)
	}
	s.replayMeta[key] = EncodeReplayMeta(endpoint, body)
}

// EncodeReplayMeta renders a manifest replay blob: endpoint, NUL,
// request body (the inverse of DecodeReplayMeta).
func EncodeReplayMeta(endpoint string, body []byte) []byte {
	meta := make([]byte, 0, len(endpoint)+1+len(body))
	meta = append(meta, endpoint...)
	meta = append(meta, 0)
	return append(meta, body...)
}

// DecodeReplayMeta splits a manifest replay blob back into the endpoint
// and request body that produced the entry. ok is false for blobs this
// server version cannot interpret (foreign writers, truncation).
func DecodeReplayMeta(meta []byte) (endpoint string, body []byte, ok bool) {
	i := strings.IndexByte(string(meta), 0)
	if i <= 0 {
		return "", nil, false
	}
	switch e := string(meta[:i]); e {
	case "run", "figure", "analysis":
		return e, meta[i+1:], true
	}
	return "", nil, false
}

// writeBody sends canonical response bytes with the served-from class.
func (s *Server) writeBody(w http.ResponseWriter, served string, body []byte) {
	s.obs.responses[served].Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ResultHeader, served)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	// Error is the failure description.
	Error string `json:"error"`
}

// writeError sends a JSON error with the given status.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// handleHealthz reports liveness. A draining server answers 503 so load
// balancers stop routing to it while in-flight requests finish; a
// degraded server — its persistent store unavailable, serving
// memory-only — answers 200 with status "degraded", because it still
// serves correctly and must not be drained for a disk problem. Draining
// wins when both apply.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.storeDegraded() {
		status = "degraded"
	}
	select {
	case <-s.draining:
		status, code = "draining", http.StatusServiceUnavailable
	default:
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// handleStatsz serves the operational counters.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot())
}

// ListenAndServe serves on cfg.Addr until Shutdown; it returns
// http.ErrServerClosed after a graceful drain.
func (s *Server) ListenAndServe() error {
	srv := &http.Server{Addr: s.cfg.Addr, Handler: s.handler}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.ListenAndServe()
}

// Serve serves on an existing listener until Shutdown (used by the
// restart-warm bench harness, which needs an ephemeral port); it
// returns http.ErrServerClosed after a graceful drain.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.handler}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// Shutdown drains the server gracefully: mark draining (healthz flips to
// 503), stop accepting connections, wait for in-flight handlers within
// ctx, then stop the workers after the queue empties. Safe to call once;
// later calls return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		close(s.draining)
		s.httpMu.Lock()
		srv := s.httpSrv
		s.httpMu.Unlock()
		if srv != nil {
			if err = srv.Shutdown(ctx); err != nil {
				// The drain budget expired with handlers still running;
				// those handlers may yet enqueue, so the queue cannot be
				// closed safely. The process is exiting anyway — leak
				// the workers instead of racing a send-on-closed panic.
				return
			}
		}
		// No handlers remain (callers of Handler() must stop their own
		// listener first); nothing can enqueue anymore, so closing the
		// queue lets the workers finish the jobs already admitted and
		// exit.
		close(s.jobs)
		done := make(chan struct{})
		go func() {
			s.workers.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
		// The workers are done writing through: persist the cache
		// manifest (advisory — costs and replay blobs for the next
		// lifetime's eviction ranking and bench warm replay), then close
		// a store New opened (an injected cfg.Store belongs to its
		// caller, but the manifest is still saved on its behalf because
		// only this server knows the replay metadata).
		if s.store != nil {
			s.metaMu.Lock()
			meta := s.replayMeta
			s.metaMu.Unlock()
			s.store.SaveManifest(func(key string) []byte { return meta[key] })
			if s.storeOwned {
				if cerr := s.store.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	})
	return err
}
