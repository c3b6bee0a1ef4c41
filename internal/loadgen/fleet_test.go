package loadgen

import (
	"testing"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/server"
	"locsched/internal/store"
)

// TestFleetDifferential3Replicas is the acceptance differential: the
// deterministic mixed stream served by a 3-replica in-process fleet
// (real planner, per-replica store volumes) must be byte-identical to
// the single-instance oracle, with an aggregate hit rate no worse and
// total executions strictly below 3× — one execution per distinct key
// fleet-wide, not one per replica.
func TestFleetDifferential3Replicas(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet differential runs real experiments")
	}
	srvCfg := server.DefaultConfig()
	srvCfg.Workers = 4
	srvCfg.DrainTimeout = 10 * time.Second
	srvCfg.StoreDir = t.TempDir()
	rep, err := RunFleetBench(srvCfg, LoadConfig{
		Concurrency: 4,
		Requests:    60,
		Scale:       1,
		Timeout:     60 * time.Second,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, rep.Format())
	}
	// The contract Verify encodes, pinned explicitly: equality-grade
	// determinism and real scale-out savings.
	if rep.Mismatched != 0 {
		t.Fatalf("%d fleet bodies differ from the oracle", rep.Mismatched)
	}
	fleet, single := rep.Fleet.Server.Counter(executionsTotal), rep.Single.Server.Counter(executionsTotal)
	if fleet != single {
		t.Fatalf("fleet executed %d jobs fleet-wide, want exactly the oracle's %d (in-order replay, synchronous replication)",
			fleet, single)
	}
	if rep.Fleet.Server.Counter(peerHitsTotal) == 0 {
		t.Fatal("fleet run never served from a peer")
	}
}

// TestFleetBenchCountsOnlyItsOwnRun: the oracle's and the fleet's
// experiment-cache counts are each this run's own work — together they
// add up to exactly what the process did during the bench — and the
// fleet's request count is summed over every replica, not read from
// one.
func TestFleetBenchCountsOnlyItsOwnRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet bench runs real experiments")
	}
	srvCfg := server.DefaultConfig()
	srvCfg.Workers = 4
	srvCfg.DrainTimeout = 10 * time.Second
	const requests = 40
	before := experiment.Stats()
	rep, err := RunFleetBench(srvCfg, LoadConfig{Concurrency: 4, Requests: requests, Scale: 1, Timeout: time.Minute}, 3)
	if err != nil {
		t.Fatal(err)
	}
	after := experiment.Stats()
	for _, c := range []struct {
		series string
		want   int64
	}{
		{"locsched_experiment_matrix_hits_total", after.MatrixHits - before.MatrixHits},
		{"locsched_experiment_ls_hits_total", after.LSHits - before.LSHits},
		{"locsched_experiment_lsm_hits_total", after.LSMHits - before.LSMHits},
		{"locsched_experiment_runner_pool_hits_total", after.RunnerPoolHits - before.RunnerPoolHits},
		{"locsched_experiment_intern_hits_total", after.InternHits - before.InternHits},
	} {
		single, fleet := rep.Single.Server.Counter(c.series), rep.Fleet.Server.Counter(c.series)
		if single+fleet != c.want {
			t.Errorf("%s: oracle %d + fleet %d != %d done in the process during the bench", c.series, single, fleet, c.want)
		}
	}
	if got := rep.Fleet.Server.Counter("locsched_server_requests_total"); got != requests {
		t.Errorf("fleet counted %d requests, want the %d sent", got, requests)
	}
}

// TestRunFleetBenchRejectsBadSetup: the bench guards its contract —
// fewer than two replicas is not a fleet, and an injected store cannot
// be shared across replicas (each needs its own volume under StoreDir).
func TestRunFleetBenchRejectsBadSetup(t *testing.T) {
	if _, err := RunFleetBench(server.DefaultConfig(), LoadConfig{}, 1); err == nil {
		t.Fatal("1-replica fleet bench accepted")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := server.DefaultConfig()
	cfg.Store = st
	if _, err := RunFleetBench(cfg, LoadConfig{}, 3); err == nil {
		t.Fatal("injected shared store accepted")
	}
}

// TestIntegrationRestartWarm runs the full restart-warm bench harness —
// two in-process daemon lifetimes with the real experiment planner over
// one store directory — and asserts the warm-start contract it was
// built to prove: no hit-rate regression across the restart and a
// warm lifetime actually served from disk.
func TestIntegrationRestartWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations twice")
	}
	cfg := server.DefaultConfig()
	cfg.Workers = 2
	cfg.Scale = 1
	cfg.StoreDir = t.TempDir()
	rep, err := RunRestartWarm(cfg, LoadConfig{
		Concurrency: 4,
		Requests:    40,
		Scale:       1,
		Timeout:     2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, rep.Format())
	}
	// The warm lifetime must not recompute keys the store already
	// holds: its execution count stays below the cold lifetime's (only
	// the per-run coalesce-burst nonce keys are genuinely new).
	warm, cold := rep.Warm.Server.Counter(executionsTotal), rep.Cold.Server.Counter(executionsTotal)
	if warm >= cold {
		t.Fatalf("warm executions %d did not drop below cold %d\n%s", warm, cold, rep.Format())
	}
	if recovered, _ := rep.Warm.Server.Gauge("locsched_store_recovered_entries"); recovered == 0 {
		t.Fatalf("warm store recovered no entries\n%s", rep.Format())
	}
	// Both lifetimes measured real requests, so the latency percentiles
	// must be populated and ordered.
	for name, lr := range map[string]*LoadReport{"cold": rep.Cold, "warm": rep.Warm} {
		if lr.P50 <= 0 || lr.P95 < lr.P50 || lr.P99 < lr.P95 {
			t.Errorf("%s lifetime: implausible latency percentiles p50=%v p95=%v p99=%v",
				name, lr.P50, lr.P95, lr.P99)
		}
	}
}
