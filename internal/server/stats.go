package server

import (
	"time"

	"locsched/internal/experiment"
	"locsched/internal/obs"
	"locsched/internal/store"
)

// counters holds the daemon's request-path counters. Each field is a
// registry-registered obs.Counter declared by its tag (obs.Bind, which
// can only set exported fields), so /metricsz renders these very atomics
// and /statsz reads them back from the registry by the same names.
// Gauges (queue depth, in-flight) are sampled from their owners by
// registerGauges instead.
type counters struct {
	Requests          *obs.Counter `metric:"locsched_server_requests_total" help:"Keyed-endpoint requests (run/figure/analysis)."`
	CacheHits         *obs.Counter `metric:"locsched_cache_memory_hits_total" help:"Responses served verbatim from the in-memory result cache."`
	DiskHits          *obs.Counter `metric:"locsched_cache_disk_hits_total" help:"Responses served verified from the persistent store."`
	DiskWrites        *obs.Counter `metric:"locsched_store_write_through_total" help:"Responses successfully written through to the persistent store."`
	Coalesced         *obs.Counter `metric:"locsched_server_coalesced_total" help:"Requests attached to an identical in-flight execution."`
	Executions        *obs.Counter `metric:"locsched_server_executions_total" help:"Jobs actually run by the worker pool."`
	Rejected          *obs.Counter `metric:"locsched_server_rejected_total" help:"429 admission-control rejections."`
	Timeouts          *obs.Counter `metric:"locsched_server_timeouts_total" help:"504 per-request deadline expiries."`
	CoalesceTimeouts  *obs.Counter `metric:"locsched_server_coalesce_timeouts_total" help:"504s suffered by coalesced followers specifically."`
	Failures          *obs.Counter `metric:"locsched_server_failures_total" help:"Executions that returned an error."`
	BadRequests       *obs.Counter `metric:"locsched_server_bad_requests_total" help:"400s from unparsable or unresolvable requests."`
	PeerHits          *obs.Counter `metric:"locsched_fleet_peer_hits_total" help:"Responses served from verified peer-fetched bytes."`
	PeerMisses        *obs.Counter `metric:"locsched_fleet_peer_misses_total" help:"Clean peer misses (owner answered 404; recomputed locally)."`
	PeerErrors        *obs.Counter `metric:"locsched_fleet_peer_errors_total" help:"Failed peer fetches (down/slow/corrupt; recomputed locally)."`
	PeerServes        *obs.Counter `metric:"locsched_fleet_peer_serves_total" help:"Peer GETs this replica answered with bytes."`
	ReplicatedIn      *obs.Counter `metric:"locsched_fleet_replicated_in_total" help:"Entries replicated into this replica by peers."`
	ReplicatedOut     *obs.Counter `metric:"locsched_fleet_replicated_out_total" help:"Entries this replica replicated to their owners."`
	ReplicationErrors *obs.Counter `metric:"locsched_fleet_replication_errors_total" help:"Failed outbound replications (best-effort, dropped)."`
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
	PeerMisses int64 `json:"peer_misses" metric:"locsched_fleet_peer_misses_total"`
	// PeerServes counts peer GETs this replica answered with bytes.
	PeerServes int64 `json:"peer_serves" metric:"locsched_fleet_peer_serves_total"`
	// ReplicatedIn counts entries peers replicated into this replica.
	ReplicatedIn int64 `json:"replicated_in" metric:"locsched_fleet_replicated_in_total"`
	// ReplicatedOut counts entries this replica wrote through to their
	// owners.
	ReplicatedOut int64 `json:"replicated_out" metric:"locsched_fleet_replicated_out_total"`
	// ReplicationErrors counts failed outbound replications (dropped;
	// best-effort by design).
	ReplicationErrors int64 `json:"replication_errors" metric:"locsched_fleet_replication_errors_total"`
}

// StatsSnapshot is the /statsz response: the daemon's request counters,
// queue and cache gauges, and the experiment layer's cache statistics
// (which the served workloads share with CLI runs in the same process).
type StatsSnapshot struct {
	// UptimeSeconds is time since the server was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts keyed-endpoint requests (run/figure/analysis).
	Requests int64 `json:"requests" metric:"locsched_server_requests_total"`
	// CacheHits counts responses served verbatim from the result cache.
	CacheHits int64 `json:"cache_hits" metric:"locsched_cache_memory_hits_total"`
	// Coalesced counts requests attached to an in-flight execution.
	Coalesced int64 `json:"coalesced" metric:"locsched_server_coalesced_total"`
	// Executions counts jobs the worker pool actually ran.
	Executions int64 `json:"executions" metric:"locsched_server_executions_total"`
	// Rejected counts 429 admission-control rejections.
	Rejected int64 `json:"rejected" metric:"locsched_server_rejected_total"`
	// Timeouts counts 504 deadline expiries.
	Timeouts int64 `json:"timeouts" metric:"locsched_server_timeouts_total"`
	// CoalesceTimeouts counts the subset of Timeouts suffered by
	// coalesced followers — requests that attached to another request's
	// execution and still saw their own deadline expire.
	CoalesceTimeouts int64 `json:"coalesce_timeouts" metric:"locsched_server_coalesce_timeouts_total"`
	// DiskHits counts responses served verified from the persistent
	// store (misses in memory, found on disk).
	DiskHits int64 `json:"disk_hits" metric:"locsched_cache_disk_hits_total"`
	// DiskWrites counts responses successfully written through to the
	// persistent store.
	DiskWrites int64 `json:"disk_writes" metric:"locsched_store_write_through_total"`
	// PeerHits counts responses served from verified peer-fetched bytes
	// (misses everywhere locally, found on the owner replica).
	PeerHits int64 `json:"peer_hits" metric:"locsched_fleet_peer_hits_total"`
	// PeerErrors counts peer fetches that failed (peer down, deadline,
	// corrupt bytes) and degraded to local recompute. A clean 404 miss is
	// not an error; see the fleet section's PeerMisses.
	PeerErrors int64 `json:"peer_errors" metric:"locsched_fleet_peer_errors_total"`
	// Failures counts executions that returned an error.
	Failures int64 `json:"failures" metric:"locsched_server_failures_total"`
	// BadRequests counts 400 responses.
	BadRequests int64 `json:"bad_requests" metric:"locsched_server_bad_requests_total"`
	// QueueDepth is the number of jobs waiting in the queue now.
	QueueDepth int `json:"queue_depth" metric:"locsched_server_queue_depth"`
	// QueueCap is the configured queue bound.
	QueueCap int `json:"queue_cap" metric:"locsched_server_queue_capacity"`
	// InflightKeys is the number of distinct keys currently executing or
	// queued (the coalescer's pending set).
	InflightKeys int `json:"inflight_keys" metric:"locsched_server_inflight_keys"`
	// ResultEntries is the result cache's current entry count.
	ResultEntries int `json:"result_entries" metric:"locsched_cache_memory_entries"`
	// ResultBytes is the result cache's current stored byte total.
	ResultBytes int64 `json:"result_bytes" metric:"locsched_cache_memory_bytes"`
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

// snapshot assembles the current statistics: every tagged field is read
// from the registry series it names.
func (s *Server) snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Experiment:    experiment.Stats(),
	}
	s.obs.reg.Fill(&snap)
	snap.Store.Enabled = s.store != nil || s.storeErr != nil
	snap.Store.Degraded = s.storeDegraded()
	if s.storeErr != nil {
		snap.Store.OpenError = s.storeErr.Error()
	}
	if s.store != nil {
		snap.Store.Store = s.store.Stats()
	}
	if s.ring != nil {
		snap.Fleet = FleetSnapshot{Enabled: true, Self: s.ring.Self(), Members: s.ring.Members()}
		s.obs.reg.Fill(&snap.Fleet)
	}
	return snap
}
