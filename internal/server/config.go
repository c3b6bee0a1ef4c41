// Package server is locsched's serving subsystem: a long-lived daemon
// wrapping the experiment harness behind an HTTP/JSON API so scheduling
// analyses, single simulation cells, and whole figures are computed once
// and served many times.
//
// Every cacheable request is reduced to a content-addressed key — the
// workload's graph/layout fingerprints (taskgraph.Content plus the
// packed-base-layout fingerprint) joined with a canonical config digest
// — and flows through four layers:
//
//  1. a bounded content-addressed result cache holding the exact
//     response bytes of completed requests (repeats are served verbatim,
//     so a cached response is byte-identical to the cold one);
//  2. an optional disk-backed persistent result store (internal/store)
//     under the memory cache: append-only CRC-verified segments keyed by
//     the same content keys, so a restarted daemon warm-starts from disk
//     instead of recomputing. Corrupt or unreadable entries are
//     quarantined and recomputed — never served — and persistent store
//     failure trips a circuit breaker into a degraded memory-only mode
//     (visible in /healthz and /statsz) rather than failing requests;
//  3. a singleflight coalescer: identical in-flight requests attach to
//     the one execution already running and receive the same bytes;
//  4. a bounded job queue over a fixed worker pool with admission
//     control — when the queue is full new work is rejected with 429 and
//     a Retry-After hint instead of being buffered without bound.
//
// The daemon binary is cmd/locschedd; `locsched serve` starts the same
// server, and `locsched bench` (package internal/loadgen) is the load
// generator that replays a mixed scenario stream against it (with a
// -restart-warm mode proving the store's warm-start contract end to
// end).
package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"locsched/internal/store"
)

// Config tunes the serving daemon. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Addr is the listen address for ListenAndServe.
	Addr string
	// QueueDepth bounds the job queue; a full queue rejects new unique
	// requests with 429 (admission control, never unbounded buffering).
	QueueDepth int
	// Workers is the number of executor goroutines draining the queue.
	Workers int
	// ExpWorkers is the experiment.Config.Workers value given to each
	// executed job: intra-request parallelism. The default 1 keeps each
	// cell sequential and lets the daemon parallelize across requests.
	ExpWorkers int
	// SimWorkers is the experiment.Config.SimWorkers value given to each
	// executed job: the goroutines one simulation run uses, its event
	// loop included. It is cache-neutral (the pooled executor is
	// bit-identical to the inline one, and ConfigDigest excludes it), so
	// changing it never invalidates stored response bytes. The default 0,
	// like 1, runs the inline executor: the daemon spends its CPUs on
	// concurrent requests instead.
	SimWorkers int
	// CacheEntries bounds the result cache by entry count.
	CacheEntries int
	// CacheBytes bounds the result cache by total stored body bytes.
	CacheBytes int64
	// RequestTimeout is the per-request deadline covering queue wait and
	// execution; a request may lower it via its deadline_ms field but
	// never raise it. Expired waiters get 504 while the execution itself
	// runs on and still populates the result cache.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to complete after SIGTERM before the listener is torn down.
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (inline JSON task sets included).
	MaxBodyBytes int64
	// Scale is the default workload scale for requests that do not set
	// one (experiment.DefaultConfig's scale when 0).
	Scale int
	// StoreDir, when non-empty, enables the disk-backed persistent
	// result store rooted there: completed responses are written through
	// and a restarted daemon warm-starts from the surviving entries. An
	// unusable directory does not fail startup — the daemon runs
	// memory-only and reports degraded.
	StoreDir string
	// StoreBytes bounds the persistent store's on-disk size; oldest
	// segments are evicted past it (0 = the store default, 256 MiB).
	StoreBytes int64
	// Store injects a pre-opened store (tests, restart-warm bench runs);
	// when set it wins over StoreDir and the caller keeps ownership of
	// Close.
	Store *store.Store
	// FleetSelf, when non-empty, enables fleet mode: it is this replica's
	// own advertised base URL (e.g. "http://10.0.0.2:8077"), the identity
	// it occupies on the consistent-hash ring. Empty keeps the daemon a
	// single instance with the peer endpoint unregistered — the
	// single-instance request path is byte-for-byte the pre-fleet one.
	FleetSelf string
	// FleetPeers lists the other replicas' base URLs. Requires FleetSelf.
	FleetPeers []string
	// PeerTimeout bounds each peer-fetch attempt (0 = the fleet client
	// default, 2 s). Peer fetches make at most two attempts before
	// hedging to local recompute.
	PeerTimeout time.Duration
	// PeerTransport injects a custom http.RoundTripper under the peer
	// client — the chaos tests' failure-injection seam (nil = the default
	// transport).
	PeerTransport http.RoundTripper
	// Logger receives the daemon's structured access and span logs
	// (access lines at Info, trace spans at Debug). nil discards
	// everything, keeping embedded and test servers silent; response
	// bytes are identical either way.
	Logger *slog.Logger
	// Pprof, when true, registers net/http/pprof's profiling handlers
	// under /debug/pprof/ on the daemon mux. Off by default: the daemon
	// usually listens on loopback, but profiling endpoints stay opt-in.
	Pprof bool
}

// DefaultConfig returns the daemon defaults: a loopback listener, a
// 64-deep queue over one worker per CPU, a 512-entry / 64 MiB result
// cache, and 120 s request deadlines.
func DefaultConfig() Config {
	return Config{
		Addr:           "127.0.0.1:8077",
		QueueDepth:     64,
		Workers:        runtime.GOMAXPROCS(0),
		ExpWorkers:     1,
		CacheEntries:   512,
		CacheBytes:     64 << 20,
		RequestTimeout: 120 * time.Second,
		DrainTimeout:   30 * time.Second,
		MaxBodyBytes:   1 << 20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueueDepth <= 0 {
		return fmt.Errorf("server: queue depth %d must be positive", c.QueueDepth)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("server: workers %d must be positive", c.Workers)
	}
	if c.ExpWorkers < 0 {
		return fmt.Errorf("server: experiment workers %d must be non-negative", c.ExpWorkers)
	}
	if c.SimWorkers < 0 {
		return fmt.Errorf("server: sim workers %d must be non-negative", c.SimWorkers)
	}
	if c.CacheEntries <= 0 || c.CacheBytes <= 0 {
		return fmt.Errorf("server: cache bounds (%d entries, %d bytes) must be positive", c.CacheEntries, c.CacheBytes)
	}
	if c.RequestTimeout <= 0 || c.DrainTimeout <= 0 {
		return fmt.Errorf("server: timeouts (%v request, %v drain) must be positive", c.RequestTimeout, c.DrainTimeout)
	}
	if c.MaxBodyBytes <= 0 {
		return fmt.Errorf("server: max body bytes %d must be positive", c.MaxBodyBytes)
	}
	if c.Scale < 0 {
		return fmt.Errorf("server: scale %d must be non-negative", c.Scale)
	}
	if c.StoreBytes < 0 {
		return fmt.Errorf("server: store bytes %d must be non-negative", c.StoreBytes)
	}
	if c.PeerTimeout < 0 {
		return fmt.Errorf("server: peer timeout %v must be non-negative", c.PeerTimeout)
	}
	if len(c.FleetPeers) > 0 && c.FleetSelf == "" {
		return fmt.Errorf("server: fleet peers require a fleet self URL")
	}
	return nil
}
