package server

import (
	"time"

	"locsched/internal/experiment"
	"locsched/internal/obs"
	"locsched/internal/store"
)

// counters holds the daemon's operational counters. Each field is a
// registry-registered obs.Counter, so /statsz and /metricsz read the
// very same atomics — one source of truth, no read-vs-update skew
// between the two surfaces. Gauges (queue depth, in-flight) are sampled
// from their owners at snapshot time instead of being tracked here.
type counters struct {
	requests         *obs.Counter // every request on a keyed endpoint
	cacheHits        *obs.Counter // served verbatim from the result cache
	diskHits         *obs.Counter // served verified from the persistent store
	diskWrites       *obs.Counter // responses written through to the store
	coalesced        *obs.Counter // attached to an identical in-flight execution
	executions       *obs.Counter // jobs actually run by the worker pool
	rejected         *obs.Counter // 429s from admission control
	timeouts         *obs.Counter // 504s from per-request deadlines
	coalesceTimeouts *obs.Counter // 504s on coalesced followers specifically
	failures         *obs.Counter // executions that returned an error
	badInput         *obs.Counter // 400s from unparsable/unresolvable requests
	peerHits         *obs.Counter // served verified bytes fetched from the owner replica
	peerMisses       *obs.Counter // clean peer misses (owner answered 404; recomputed locally)
	peerErrors       *obs.Counter // failed peer fetches (down/slow/corrupt; recomputed locally)
	peerServes       *obs.Counter // peer GETs this replica answered with bytes
	peerReplIn       *obs.Counter // entries replicated into this replica by peers
	peerReplOut      *obs.Counter // entries this replica replicated to their owners
	peerReplErrors   *obs.Counter // failed outbound replications (best-effort, dropped)
}

// newCounters registers the daemon counters on r under their
// locsched_<layer>_<name>_total exposition names.
func newCounters(r *obs.Registry) counters {
	return counters{
		requests:         r.Counter("locsched_server_requests_total", "Keyed-endpoint requests (run/figure/analysis)."),
		cacheHits:        r.Counter("locsched_cache_memory_hits_total", "Responses served verbatim from the in-memory result cache."),
		diskHits:         r.Counter("locsched_cache_disk_hits_total", "Responses served verified from the persistent store."),
		diskWrites:       r.Counter("locsched_store_write_through_total", "Responses successfully written through to the persistent store."),
		coalesced:        r.Counter("locsched_server_coalesced_total", "Requests attached to an identical in-flight execution."),
		executions:       r.Counter("locsched_server_executions_total", "Jobs actually run by the worker pool."),
		rejected:         r.Counter("locsched_server_rejected_total", "429 admission-control rejections."),
		timeouts:         r.Counter("locsched_server_timeouts_total", "504 per-request deadline expiries."),
		coalesceTimeouts: r.Counter("locsched_server_coalesce_timeouts_total", "504s suffered by coalesced followers specifically."),
		failures:         r.Counter("locsched_server_failures_total", "Executions that returned an error."),
		badInput:         r.Counter("locsched_server_bad_requests_total", "400s from unparsable or unresolvable requests."),
		peerHits:         r.Counter("locsched_fleet_peer_hits_total", "Responses served from verified peer-fetched bytes."),
		peerMisses:       r.Counter("locsched_fleet_peer_misses_total", "Clean peer misses (owner answered 404; recomputed locally)."),
		peerErrors:       r.Counter("locsched_fleet_peer_errors_total", "Failed peer fetches (down/slow/corrupt; recomputed locally)."),
		peerServes:       r.Counter("locsched_fleet_peer_serves_total", "Peer GETs this replica answered with bytes."),
		peerReplIn:       r.Counter("locsched_fleet_replicated_in_total", "Entries replicated into this replica by peers."),
		peerReplOut:      r.Counter("locsched_fleet_replicated_out_total", "Entries this replica replicated to their owners."),
		peerReplErrors:   r.Counter("locsched_fleet_replication_errors_total", "Failed outbound replications (best-effort, dropped)."),
	}
}

// StoreSnapshot is the persistent tier's /statsz section.
type StoreSnapshot struct {
	// Enabled reports whether a store directory was configured.
	Enabled bool `json:"enabled"`
	// Degraded reports whether the tier is currently unavailable (open
	// failed, or the breaker is open/half-open) and the daemon is
	// serving memory-only.
	Degraded bool `json:"degraded"`
	// OpenError is the startup open failure, when that is why the tier
	// is down.
	OpenError string `json:"open_error,omitempty"`
	// Store holds the store's own gauges and counters (disk hits and
	// writes from the daemon's perspective are the top-level DiskHits /
	// DiskWrites counters).
	Store store.Stats `json:"store"`
}

// FleetSnapshot is the fleet layer's /statsz section.
type FleetSnapshot struct {
	// Enabled reports whether fleet mode is on (a FleetSelf URL was
	// configured).
	Enabled bool `json:"enabled"`
	// Self is this replica's own ring identity.
	Self string `json:"self,omitempty"`
	// Members is the current ring membership, sorted.
	Members []string `json:"members,omitempty"`
	// PeerMisses counts clean owner misses (404) that fell through to
	// local recompute.
	PeerMisses int64 `json:"peer_misses"`
	// PeerServes counts peer GETs this replica answered with bytes.
	PeerServes int64 `json:"peer_serves"`
	// ReplicatedIn counts entries peers replicated into this replica.
	ReplicatedIn int64 `json:"replicated_in"`
	// ReplicatedOut counts entries this replica wrote through to their
	// owners.
	ReplicatedOut int64 `json:"replicated_out"`
	// ReplicationErrors counts failed outbound replications (dropped;
	// best-effort by design).
	ReplicationErrors int64 `json:"replication_errors"`
}

// StatsSnapshot is the /statsz response: the daemon's request counters,
// queue and cache gauges, and the experiment layer's cache statistics
// (which the served workloads share with CLI runs in the same process).
type StatsSnapshot struct {
	// UptimeSeconds is time since the server was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts keyed-endpoint requests (run/figure/analysis).
	Requests int64 `json:"requests"`
	// CacheHits counts responses served verbatim from the result cache.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced counts requests attached to an in-flight execution.
	Coalesced int64 `json:"coalesced"`
	// Executions counts jobs the worker pool actually ran.
	Executions int64 `json:"executions"`
	// Rejected counts 429 admission-control rejections.
	Rejected int64 `json:"rejected"`
	// Timeouts counts 504 deadline expiries.
	Timeouts int64 `json:"timeouts"`
	// CoalesceTimeouts counts the subset of Timeouts suffered by
	// coalesced followers — requests that attached to another request's
	// execution and still saw their own deadline expire.
	CoalesceTimeouts int64 `json:"coalesce_timeouts"`
	// DiskHits counts responses served verified from the persistent
	// store (misses in memory, found on disk).
	DiskHits int64 `json:"disk_hits"`
	// DiskWrites counts responses successfully written through to the
	// persistent store.
	DiskWrites int64 `json:"disk_writes"`
	// PeerHits counts responses served from verified peer-fetched bytes
	// (misses everywhere locally, found on the owner replica).
	PeerHits int64 `json:"peer_hits"`
	// PeerErrors counts peer fetches that failed (peer down, deadline,
	// corrupt bytes) and degraded to local recompute. A clean 404 miss is
	// not an error; see the fleet section's PeerMisses.
	PeerErrors int64 `json:"peer_errors"`
	// Failures counts executions that returned an error.
	Failures int64 `json:"failures"`
	// BadRequests counts 400 responses.
	BadRequests int64 `json:"bad_requests"`
	// QueueDepth is the number of jobs waiting in the queue now.
	QueueDepth int `json:"queue_depth"`
	// QueueCap is the configured queue bound.
	QueueCap int `json:"queue_cap"`
	// InflightKeys is the number of distinct keys currently executing or
	// queued (the coalescer's pending set).
	InflightKeys int `json:"inflight_keys"`
	// ResultEntries is the result cache's current entry count.
	ResultEntries int `json:"result_entries"`
	// ResultBytes is the result cache's current stored byte total.
	ResultBytes int64 `json:"result_bytes"`
	// Store is the persistent tier's section: whether it is enabled,
	// whether it is degraded, and the store's own counters.
	Store StoreSnapshot `json:"persistent_store"`
	// Fleet is the fleet layer's section: membership and peer-traffic
	// counters (peer_hits and peer_errors above are the request-path
	// aggregates).
	Fleet FleetSnapshot `json:"fleet"`
	// Experiment snapshots the experiment layer's counters (the workload
	// family table's analysis tiers and interning, and the runner pool).
	Experiment experiment.CacheStats `json:"experiment"`
}

// snapshot assembles the current statistics.
func (s *Server) snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeSeconds:    time.Since(s.started).Seconds(),
		Requests:         s.stats.requests.Value(),
		CacheHits:        s.stats.cacheHits.Value(),
		CoalesceTimeouts: s.stats.coalesceTimeouts.Value(),
		DiskHits:         s.stats.diskHits.Value(),
		DiskWrites:       s.stats.diskWrites.Value(),
		PeerHits:         s.stats.peerHits.Value(),
		PeerErrors:       s.stats.peerErrors.Value(),
		Coalesced:        s.stats.coalesced.Value(),
		Executions:       s.stats.executions.Value(),
		Rejected:         s.stats.rejected.Value(),
		Timeouts:         s.stats.timeouts.Value(),
		Failures:         s.stats.failures.Value(),
		BadRequests:      s.stats.badInput.Value(),
		QueueDepth:       len(s.jobs),
		QueueCap:         cap(s.jobs),
		InflightKeys:     s.flight.pending(),
		ResultEntries:    s.cache.len(),
		ResultBytes:      s.cache.size(),
		Experiment:       experiment.Stats(),
	}
	snap.Store.Enabled = s.store != nil || s.storeErr != nil
	snap.Store.Degraded = s.storeDegraded()
	if s.storeErr != nil {
		snap.Store.OpenError = s.storeErr.Error()
	}
	if s.store != nil {
		snap.Store.Store = s.store.Stats()
	}
	if s.ring != nil {
		snap.Fleet = FleetSnapshot{
			Enabled:           true,
			Self:              s.ring.Self(),
			Members:           s.ring.Members(),
			PeerMisses:        s.stats.peerMisses.Value(),
			PeerServes:        s.stats.peerServes.Value(),
			ReplicatedIn:      s.stats.peerReplIn.Value(),
			ReplicatedOut:     s.stats.peerReplOut.Value(),
			ReplicationErrors: s.stats.peerReplErrors.Value(),
		}
	}
	return snap
}
