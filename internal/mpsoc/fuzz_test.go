package mpsoc

import (
	"math/rand"
	"reflect"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

// fuzzMachine decodes knobs into a machine: 1–8 cores; a 1–8 KiB cache
// of 16-, 32- or 64-byte blocks and associativity 1, 2 or 4 under LRU,
// FIFO or random replacement, modulo or prime-hashed indexing, with or
// without miss classification; write-through or write-back with a
// penalty; an optional bus contention factor and an optional
// heterogeneous mesh.
func fuzzMachine(knobs uint32) Config {
	bits := func(shift, width uint) int { return int(knobs>>shift) & (1<<width - 1) }
	cfg := DefaultConfig()
	cfg.RecordTimeline = true
	cfg.Cores = 1 + bits(0, 3)
	cfg.Cache = cache.Geometry{
		Size:      1024 << bits(3, 2),
		BlockSize: []int64{32, 16, 64, 32}[bits(21, 2)],
		Assoc:     []int{1, 2, 4, 2}[bits(5, 2)],
	}
	cfg.Replacement = []cache.Replacement{cache.LRU, cache.FIFO, cache.RandomRepl, cache.LRU}[bits(7, 2)]
	cfg.Indexing = []cache.Indexing{cache.ModuloIndexing, cache.PrimeModuloIndexing, cache.PrimeDisplacementIndexing, cache.ModuloIndexing}[bits(9, 2)]
	cfg.Classify = bits(11, 1) == 0
	if bits(12, 1) == 1 {
		cfg.WritePolicy = cache.WriteBack
		cfg.WritebackPenalty = int64(bits(13, 5))
	}
	cfg.BusFactor = 0.05 * float64(bits(18, 2))
	if bits(20, 1) == 1 {
		cfg.Machine = Machine{SpeedClasses: "1,3", Topology: TopoMesh, HopPenalty: 8}
	}
	return cfg
}

// fuzzQuantum is the small quantum pick gives preemptive policies, odd
// ones included, so segments end mid-iteration.
func fuzzQuantum(pick uint8) int64 { return 40 + int64(pick>>3)*29 }

// fuzzDispatcher decodes a policy from pick: RS, a FIFO test dispatcher
// (at quantum 0, run to completion, or at fuzzQuantum), RRS, ARR or LS.
func fuzzDispatcher(t *testing.T, g *taskgraph.Graph, cores int, pick uint8) func() Dispatcher {
	switch pick % 5 {
	case 0:
		return func() Dispatcher { return sched.NewRandom(int64(pick)) }
	case 1:
		quantum := fuzzQuantum(pick)
		if pick&8 == 0 {
			quantum = 0
		}
		return func() Dispatcher { return &fifoDispatcher{quantum: quantum} }
	case 2:
		return func() Dispatcher { return sched.MustRoundRobin(fuzzQuantum(pick)) }
	case 3:
		return func() Dispatcher {
			return sched.MustAffinityRR(sched.AffinityConfig{Quantum: fuzzQuantum(pick), Window: 4, QBatch: 2, Decay: 5000})
		}
	}
	m, err := sharing.ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := sched.LocalitySchedule(g, m, cores)
	if err != nil {
		t.Fatal(err)
	}
	return func() Dispatcher { return sched.NewStaticMode("LS", asg, sched.StealWhenIdle) }
}

// FuzzEngineDifferential: a random small workload (randomWorkload's
// multi-reference processes) on a random machine under a random policy
// gives one Result, timeline included, whichever way it is simulated:
// runSegmentRLE or the flat oracle, the inline executor or the pooled
// one at 2 and 3 workers, a fresh Runner or a reused one. The run
// satisfies the accounting identities, and under RRS, ARR at window 0
// gives the same Result.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(int64(1), uint32(0), uint8(0))
	f.Add(int64(2), uint32(0x1f_ffff), uint8(2))
	f.Add(int64(3), uint32(0x2a5a), uint8(3))
	f.Add(int64(4), uint32(0x15_1234), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, knobs uint32, pick uint8) {
		g, am := randomWorkload(t, rand.New(rand.NewSource(seed)))
		cfg := fuzzMachine(knobs)
		mkDisp := fuzzDispatcher(t, g, cfg.Cores, pick)

		flat, err := newFlatRunner(g, am, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := flat.Run(mkDisp())
		if err != nil {
			t.Fatalf("flat oracle: %v", err)
		}
		checkAccounting(t, g, cfg.Cores, want)

		reused, err := NewRunner(g, am, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 0} {
			got, err := reused.RunParallel(mkDisp(), workers)
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%d workers: diverges from the flat oracle:\nflat: %+v\nrle:  %+v", workers, want, got)
			}
		}
		fresh, err := NewRunner(g, am, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.RunParallel(mkDisp(), 3)
		if err != nil {
			t.Fatalf("fresh runner: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("fresh runner diverges from the flat oracle:\nflat: %+v\nrle:  %+v", want, got)
		}

		if pick%5 == 2 {
			arr, err := reused.Run(sched.MustAffinityRR(sched.AffinityConfig{Quantum: fuzzQuantum(pick), Window: 0, QBatch: 8, Decay: 999}))
			if err != nil {
				t.Fatalf("ARR: %v", err)
			}
			arr.Policy = want.Policy
			if !reflect.DeepEqual(want, arr) {
				t.Fatalf("ARR(window=0) diverges from RRS:\nRRS: %+v\nARR: %+v", want, arr)
			}
		}
	})
}
