package mpsoc

import (
	"fmt"
	"reflect"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/sched"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// TestARRZeroStrengthMatchesRRS is the ARR family's anchor criterion:
// at affinity strength (window) 0 the dispatcher must be bit-identical
// to RRS — same makespan, per-core busy cycles and cache stats,
// completion cycles, preemption and affinity counters — across every
// Table 1 application, both address maps, all machine variants, and
// both segment simulations (RLE and the flat oracle). Only the policy
// name may differ.
func TestARRZeroStrengthMatchesRRS(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for cfgName, cfg := range rleDiffConfigs() {
		for engine, run := range map[string]func(*taskgraph.Graph, Dispatcher, layout.AddressMap, Config) (*Result, error){
			"rle": runOnce, "flat": runFlat,
		} {
			for _, app := range apps {
				for amName, am := range rleDiffMaps(t, app, cfg.Cache) {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", cfgName, engine, app.Name, amName), func(t *testing.T) {
						const quantum = 193
						rrs, err := run(app.Graph, sched.MustRoundRobin(quantum), am, cfg)
						if err != nil {
							t.Fatalf("RRS: %v", err)
						}
						// QBatch and Decay must be inert at window 0: batching
						// only applies to warm picks, which need a window.
						arr, err := run(app.Graph, sched.MustAffinityRR(sched.AffinityConfig{
							Quantum: quantum, Window: 0, QBatch: 8, Decay: 999,
						}), am, cfg)
						if err != nil {
							t.Fatalf("ARR: %v", err)
						}
						if arr.Policy != "ARR" || rrs.Policy != "RRS" {
							t.Fatalf("policy names: %q / %q", arr.Policy, rrs.Policy)
						}
						arr.Policy = rrs.Policy
						if !reflect.DeepEqual(rrs, arr) {
							t.Errorf("ARR(window=0) diverges from RRS:\nRRS: %+v\nARR: %+v", rrs, arr)
						}
					})
				}
			}
		}
	}
}

// TestARRWarmResumes: with a positive window ARR must convert resumes
// that RRS scatters across cores into same-core (affine) resumes, and
// its makespan must not regress — the policy's reason to exist, held as
// an invariant on the full concurrent mix.
func TestARRWarmResumes(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	epg, arrays, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, arrays...)
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 2048
	rrs, err := runOnce(epg, sched.MustRoundRobin(quantum), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := runOnce(epg, sched.MustAffinityRR(sched.AffinityConfig{
		Quantum: quantum, Window: 16,
	}), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rrs.Preemptions == 0 {
		t.Fatal("mix produced no preemptions; the comparison is vacuous")
	}
	rrsWarm := float64(rrs.AffineResumes) / float64(rrs.AffineResumes+rrs.Migrations)
	arrWarm := float64(arr.AffineResumes) / float64(arr.AffineResumes+arr.Migrations)
	if arrWarm <= rrsWarm {
		t.Errorf("ARR warm-resume share %.2f not above RRS %.2f", arrWarm, rrsWarm)
	}
	if arr.Cycles > rrs.Cycles {
		t.Errorf("ARR makespan %d regressed past RRS %d", arr.Cycles, rrs.Cycles)
	}
}

// TestAffinityCountersRunToCompletion: policies that never preempt must
// report zero resumed segments of either kind.
func TestAffinityCountersRunToCompletion(t *testing.T) {
	app, err := workload.Build("MxM", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(app.Graph, sched.NewRandom(7), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AffineResumes != 0 || res.Migrations != 0 {
		t.Errorf("RS reported %d affine resumes, %d migrations; want 0/0",
			res.AffineResumes, res.Migrations)
	}
}
