package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"locsched/internal/server"
)

// The in-process benches: `locsched bench -restart-warm` replays the
// load against two successive daemon lifetimes over one store
// directory, and `locsched bench -fleet` replays the deterministic
// stream once against a single daemon (the differential oracle) and
// once round-robin across an N-replica fleet wired over loopback
// listeners, then checks that every fleet response is byte-identical
// to the single-instance one, that the fleet's aggregate hit rate is no
// worse, and that the fleet executed strictly fewer jobs than N
// independent instances would have.

// fleet is a set of in-process daemons serving on loopback listeners.
type fleet struct {
	srvs  []*server.Server
	bases []string
	done  chan error
}

// startFleet builds and serves n daemons on loopback listeners. With
// n == 1 it starts a plain instance with no ring; otherwise the n
// replicas form one ring, their listeners bound first so every replica
// knows the full membership at construction. storeRoot, when
// non-empty, is the single instance's store directory, or the parent of
// one replica-i directory per replica. On failure every listener bound
// and every daemon built is released.
func startFleet(cfg server.Config, n int, storeRoot string) (*fleet, error) {
	var listeners []net.Listener
	f := &fleet{done: make(chan error, n)}
	release := func(err error) (*fleet, error) {
		for _, l := range listeners {
			l.Close()
		}
		for _, srv := range f.srvs {
			srv.Shutdown(context.Background())
		}
		return nil, err
	}
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return release(err)
		}
		listeners = append(listeners, l)
		f.bases = append(f.bases, "http://"+l.Addr().String())
	}
	for i := range n {
		c := cfg
		c.FleetSelf, c.FleetPeers = "", nil
		if n > 1 {
			c.FleetSelf = f.bases[i]
			c.FleetPeers = append(append([]string(nil), f.bases[:i]...), f.bases[i+1:]...)
		}
		c.StoreDir = storeRoot
		if n > 1 && storeRoot != "" {
			c.StoreDir = filepath.Join(storeRoot, fmt.Sprintf("replica-%d", i))
		}
		srv, err := server.New(c, nil)
		if err != nil {
			return release(err)
		}
		f.srvs = append(f.srvs, srv)
	}
	for i, srv := range f.srvs {
		go func(l net.Listener) { f.done <- srv.Serve(l) }(listeners[i])
	}
	return f, nil
}

// stopFleet drains every daemon.
func stopFleet(f *fleet, drain time.Duration) error {
	var first error
	for _, srv := range f.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	for range f.srvs {
		if err := <-f.done; err != nil && err != http.ErrServerClosed && first == nil {
			first = err
		}
	}
	return first
}

// RestartReport is the outcome of a restart-warm run: the same load
// replayed against two successive daemon lifetimes over one store
// directory.
type RestartReport struct {
	// Cold is the first lifetime's report: an empty store, every
	// distinct key executed and written through to disk.
	Cold *LoadReport
	// Warm is the second lifetime's report: the restarted daemon serving
	// the same stream out of the recovered store.
	Warm *LoadReport
}

// Verify checks the warm-start contract: the restarted daemon's hit
// rate must not drop below the first lifetime's, and the warm run must
// actually have been served from disk.
func (r *RestartReport) Verify() error {
	if r.Warm.Errors > 0 {
		return fmt.Errorf("loadgen: warm run had %d errors", r.Warm.Errors)
	}
	if r.Warm.HitRate < r.Cold.HitRate {
		return fmt.Errorf("loadgen: warm hit rate %.1f%% below pre-restart %.1f%%",
			100*r.Warm.HitRate, 100*r.Cold.HitRate)
	}
	if r.Warm.Server.Counter(diskHitsTotal) == 0 {
		return fmt.Errorf("loadgen: warm run never hit the persistent store")
	}
	if degraded, _ := r.Warm.Server.Gauge(storeDegraded); degraded > 0 {
		return fmt.Errorf("loadgen: store degraded after restart")
	}
	return nil
}

// Format renders the restart-warm outcome for humans.
func (r *RestartReport) Format() string {
	var b strings.Builder
	b.WriteString("=== lifetime 1 (cold store) ===\n")
	b.WriteString(r.Cold.Format())
	b.WriteString("=== lifetime 2 (restarted on same store dir) ===\n")
	b.WriteString(r.Warm.Format())
	fmt.Fprintf(&b, "restart-warm: hit rate %.1f%% -> %.1f%%, executions %d -> %d, disk hits %d\n",
		100*r.Cold.HitRate, 100*r.Warm.HitRate,
		r.Cold.Server.Counter(executionsTotal), r.Warm.Server.Counter(executionsTotal),
		r.Warm.Server.Counter(diskHitsTotal))
	return b.String()
}

// RunRestartWarm proves the persistent store's warm-start contract end
// to end: it starts an in-process daemon on a loopback port with the
// given store directory, replays the load, shuts the daemon down
// (closing the store), starts a fresh daemon over the same directory,
// and replays the identical load. The caller asserts the contract via
// RestartReport.Verify.
func RunRestartWarm(srvCfg server.Config, load LoadConfig) (*RestartReport, error) {
	if srvCfg.StoreDir == "" {
		return nil, fmt.Errorf("loadgen: restart-warm needs a store directory")
	}
	if srvCfg.Store != nil {
		return nil, fmt.Errorf("loadgen: restart-warm must own its store; set StoreDir, not Store")
	}
	var reps [2]*LoadReport
	for i := range reps {
		f, err := startFleet(srvCfg, 1, srvCfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("loadgen: restart-warm lifetime %d: %w", i+1, err)
		}
		load.BaseURL = f.bases[0]
		reps[i], err = RunLoad(load)
		if serr := stopFleet(f, srvCfg.DrainTimeout); serr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: restart-warm lifetime %d: %w", i+1, err)
		}
	}
	return &RestartReport{Cold: reps[0], Warm: reps[1]}, nil
}

// FleetReport is the outcome of one fleet differential bench: the
// single-instance oracle run and the aggregate fleet run over the same
// stream.
type FleetReport struct {
	// Replicas is the fleet size.
	Replicas int
	// Single is the single-instance oracle run.
	Single *LoadReport
	// Fleet is the fleet run: per-request classes and /metricsz deltas
	// aggregated across the whole fleet.
	Fleet *LoadReport
	// Mismatched counts stream indices whose fleet response body
	// differed from the single-instance body (must be zero).
	Mismatched int
}

// Verify checks the fleet contract: no errors, byte-identical bodies,
// aggregate hit rate at least the single-instance baseline, total
// executions strictly below Replicas × the single-instance count, and
// actual peer traffic (a fleet that never talks is N single instances).
func (r *FleetReport) Verify() error {
	if r.Single.Errors > 0 || r.Fleet.Errors > 0 {
		return fmt.Errorf("loadgen: fleet bench had errors (single %d, fleet %d)", r.Single.Errors, r.Fleet.Errors)
	}
	if r.Mismatched > 0 {
		return fmt.Errorf("loadgen: %d fleet responses differ from the single-instance oracle", r.Mismatched)
	}
	if r.Fleet.HitRate < r.Single.HitRate {
		return fmt.Errorf("loadgen: fleet hit rate %.1f%% below single-instance %.1f%%",
			100*r.Fleet.HitRate, 100*r.Single.HitRate)
	}
	single, fleet := r.Single.Server.Counter(executionsTotal), r.Fleet.Server.Counter(executionsTotal)
	if fleet >= int64(r.Replicas)*single {
		return fmt.Errorf("loadgen: fleet executed %d jobs, not below %d× single-instance %d",
			fleet, r.Replicas, single)
	}
	if r.Fleet.Server.Counter(peerHitsTotal) == 0 {
		return fmt.Errorf("loadgen: fleet run never served from a peer")
	}
	return nil
}

// Format renders the fleet bench outcome for humans.
func (r *FleetReport) Format() string {
	var b strings.Builder
	b.WriteString("=== single instance (oracle) ===\n")
	b.WriteString(r.Single.Format())
	fmt.Fprintf(&b, "=== fleet (%d replicas) ===\n", r.Replicas)
	b.WriteString(r.Fleet.Format())
	fmt.Fprintf(&b, "fleet: hit rate %.1f%% vs single %.1f%%, executions %d vs %d×%d, %d peer hits, %d body mismatches\n",
		100*r.Fleet.HitRate, 100*r.Single.HitRate,
		r.Fleet.Server.Counter(executionsTotal), r.Replicas, r.Single.Server.Counter(executionsTotal),
		r.Fleet.Server.Counter(peerHitsTotal), r.Mismatched)
	return b.String()
}

// RunFleetBench runs the fleet differential bench: the deterministic
// mixed stream against one in-process single instance (the oracle),
// then against a replicas-wide in-process fleet, comparing bodies
// index by index. srvCfg.StoreDir, when set, is used as a root: the
// single instance and each replica get disjoint store directories
// beneath it, mirroring one volume per replica in production.
func RunFleetBench(srvCfg server.Config, load LoadConfig, replicas int) (*FleetReport, error) {
	if replicas < 2 {
		return nil, fmt.Errorf("loadgen: fleet bench needs at least 2 replicas (got %d)", replicas)
	}
	if srvCfg.Store != nil {
		return nil, fmt.Errorf("loadgen: fleet bench must own its stores; set StoreDir, not Store")
	}
	stream := buildStream(load.Scale)
	oracleDir := ""
	if srvCfg.StoreDir != "" {
		oracleDir = filepath.Join(srvCfg.StoreDir, "single")
	}
	lifetimes := []struct {
		name     string
		n        int
		storeDir string
	}{{"oracle", 1, oracleDir}, {"fleet", replicas, srvCfg.StoreDir}}
	var reps [2]*LoadReport
	var bodies [2][][]byte
	for i, lt := range lifetimes {
		f, err := startFleet(srvCfg, lt.n, lt.storeDir)
		if err != nil {
			return nil, fmt.Errorf("loadgen: fleet bench %s: %w", lt.name, err)
		}
		r, err := begin(load, f.bases)
		if err == nil {
			bodies[i] = r.replay(stream)
			reps[i], err = r.finish()
		}
		if serr := stopFleet(f, srvCfg.DrainTimeout); serr != nil && err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: fleet bench %s: %w", lt.name, err)
		}
	}
	rep := &FleetReport{Replicas: replicas, Single: reps[0], Fleet: reps[1]}
	for i := range bodies[1] {
		if !bytes.Equal(bodies[1][i], bodies[0][i]) {
			rep.Mismatched++
		}
	}
	return rep, nil
}
