package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"locsched/internal/server"
	"locsched/internal/workload"
)

// newRNG returns the generator every seeded draw uses; stream separates
// independent draws made from one seed.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// rung is one point of a ladder: a machine size and the Table 1
// application names of its concurrent mix, in task order.
type rung struct {
	Cores int
	Names []string
}

func (r rung) label() string { return fmt.Sprintf("%dc/|T|=%d", r.Cores, len(r.Names)) }

// drawMix draws a |T|=tasks mix from the Table 1 suite: every
// application the same number of times, the remainder distinct
// applications chosen by rng, all in a shuffled task order.
func drawMix(rng *rand.Rand, tasks int) []string {
	suite := workload.Names()
	names := make([]string, 0, tasks)
	for i := 0; i < tasks/len(suite); i++ {
		names = append(names, suite...)
	}
	for _, i := range rng.Perm(len(suite))[:tasks%len(suite)] {
		names = append(names, suite[i])
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// cycleMix is the mix locsched fig7xl runs (workload.BuildMany): the
// Table 1 suite cycled in order.
func cycleMix(tasks int) []string {
	suite := workload.Names()
	names := make([]string, tasks)
	for i := range names {
		names[i] = suite[i%len(suite)]
	}
	return names
}

// drawLadder returns one rung per core count (tasks = cores/4) and the
// RS policy seed, drawn from the workload seed. Rungs below fixedFrom
// cores get drawn mixes; rungs from fixedFrom up keep fig7xl's mix.
func drawLadder(seed int64, cores []int, fixedFrom int) ([]rung, int64) {
	rng := newRNG(seed, 1)
	rungs := make([]rung, len(cores))
	for i, c := range cores {
		rungs[i] = rung{Cores: c, Names: cycleMix(c / 4)}
		if c < fixedFrom {
			rungs[i].Names = drawMix(rng, c/4)
		}
	}
	return rungs, 1 + rng.Int64N(1<<30)
}

// buildMix builds a rung's applications with task IDs 0..|T|-1.
func buildMix(r rung, p workload.Params) ([]*workload.App, error) {
	apps := make([]*workload.App, len(r.Names))
	for i, name := range r.Names {
		a, err := workload.Build(name, i, p)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	return apps, nil
}

// request is one /v1/run call of the serve-mix stream. Key identifies
// the request body, so repeats of a key must be answered identically.
type request struct {
	Key   int
	Body  []byte
	Fresh bool // a key never sent before in this stream
}

// serveKeys returns the fixed /v1/run key set, most popular first:
// Table 1 applications and |T|=2–4 mixes, under five policies, on a
// dozen machine and policy variants.
func serveKeys() ([][]byte, error) {
	type wl struct {
		app string
		mix int
	}
	var wls []wl
	for _, a := range workload.Names() {
		wls = append(wls, wl{app: a})
	}
	for _, m := range []int{2, 3, 4} {
		wls = append(wls, wl{mix: m})
	}
	one, two := 1, 2
	hop := int64(4)
	variants := []server.ConfigSpec{
		{},
		{Cores: 4},
		{Cores: 16},
		{CacheKB: 4},
		{CacheKB: 16},
		{Assoc: 4},
		{MissPenalty: 150},
		{Quantum: 1024},
		{Quantum: 4096},
		{Affinity: &one, QBatch: &two},
		{Topology: "mesh", HopPenalty: &hop},
		{SpeedClasses: "1,2"},
	}
	policies := []string{"rs", "rrs", "arr", "ls", "lsm"}
	var bodies [][]byte
	for _, v := range variants {
		for _, w := range wls {
			for _, p := range policies {
				b, err := json.Marshal(server.RunRequest{
					Workload: server.WorkloadSpec{App: w.app, Mix: w.mix},
					Policy:   p,
					Config:   v,
				})
				if err != nil {
					return nil, err
				}
				bodies = append(bodies, b)
			}
		}
	}
	// A fixed interleaving spreads workloads and policies over the
	// popularity ranks; it does not depend on the workload seed, so every
	// seed sees the same popularity order.
	order := newRNG(0, 7).Perm(len(bodies))
	out := make([][]byte, len(bodies))
	for i, j := range order {
		out[i] = bodies[j]
	}
	return out, nil
}

// Stream shape: the share of fresh keys, the Zipf exponent over the
// fixed key set's popularity ranks, and how often a burst of identical
// fresh requests (one per client) exercises the coalescer.
const (
	freshShare = 0.1
	zipfS      = 1.0
	burstEvery = 4000
)

// stream deals the serve-mix request sequence. The sequence depends only
// on the seed, the key set and the client count; clients take requests
// in sequence order, so which client sends which request varies but the
// sequence does not.
type stream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	fixed   [][]byte
	cdf     []float64
	clients int
	n       int       // requests dealt so far
	fresh   int       // fresh keys minted so far
	burst   []request // pending copies of the current burst key
	qbase   int64     // first fresh quantum, above every fixed-set quantum
}

func newStream(seed int64, fixed [][]byte, clients int) *stream {
	cdf := make([]float64, len(fixed))
	var sum float64
	for i := range fixed {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	rng := newRNG(seed, 2)
	return &stream{rng: rng, fixed: fixed, cdf: cdf, clients: clients, qbase: 4097 + rng.Int64N(1024)}
}

// next returns the next request of the sequence.
func (s *stream) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if len(s.burst) > 0 {
		r := s.burst[0]
		s.burst = s.burst[1:]
		return r
	}
	if s.n%burstEvery == 0 {
		r := s.mintFresh()
		for i := 1; i < s.clients; i++ {
			c := r
			c.Fresh = false
			s.burst = append(s.burst, c)
		}
		return r
	}
	if s.rng.Float64() < freshShare {
		return s.mintFresh()
	}
	k := sort.SearchFloat64s(s.cdf, s.rng.Float64())
	if k >= len(s.fixed) {
		k = len(s.fixed) - 1
	}
	return request{Key: k, Body: s.fixed[k]}
}

// mintFresh returns a key never dealt before: a Table 1 application cell
// under RS with an unused policy seed, or under RRS or ARR with an
// unused quantum. Fresh keys are numbered after the fixed set.
func (s *stream) mintFresh() request {
	k := s.fresh
	s.fresh++
	apps := workload.Names()
	req := server.RunRequest{Workload: server.WorkloadSpec{App: apps[s.rng.IntN(len(apps))]}}
	switch k % 3 {
	case 0:
		req.Policy = "rs"
		req.Config.Seed = 1_000_000 + int64(k)
	case 1:
		req.Policy = "rrs"
		req.Config.Quantum = s.qbase + int64(k)
	default:
		req.Policy = "arr"
		req.Config.Quantum = s.qbase + int64(k)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings and integers always encodes
	}
	return request{Key: len(s.fixed) + k, Body: b, Fresh: true}
}
