package mpsoc

import (
	"fmt"
	"sync/atomic"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/sim"
	"locsched/internal/taskgraph"
	"locsched/internal/trace"
)

// Dispatcher is the scheduling policy contract. The engine owns readiness
// tracking (dependences) and calls the dispatcher to choose work:
//
//   - Ready(id) announces a process whose predecessors have all completed.
//   - Pick(core, now) asks for the next process to run on a free core; a
//     zero quantum means run to completion. ok=false idles the core until
//     another process completes.
//   - Preempted(id) hands back a process whose quantum expired.
//
// Dispatchers must be deterministic given their seed, may only hand out
// processes previously announced via Ready or Preempted, and a failed
// Pick must be side-effect-free (the engine elides offers it can prove
// would fail).
type Dispatcher interface {
	Name() string
	Ready(id taskgraph.ProcID)
	Pick(core int, now int64) (id taskgraph.ProcID, quantum int64, ok bool)
	Preempted(id taskgraph.ProcID)
}

// CoreAgnostic is an optional Dispatcher capability: implementations
// return true to declare that Pick's success never depends on the core
// argument (global-queue and work-stealing policies). The engine then
// wakes only as many idle cores as it has announced-but-unpicked
// processes instead of re-offering every idle core on every completion —
// at 128 cores the all-but-one failed offers otherwise dominate
// preemptive schedules. Which core receives which process is unchanged
// for policies without affinity hints: idle cores are woken in index
// order (warm cores first for AffinityHinter dispatchers), and the
// elided offers are exactly those that would have failed.
type CoreAgnostic interface {
	CoreAgnostic() bool
}

// SegmentObserver is an optional Dispatcher capability: after every
// executed segment the engine reports which process ran, on which core,
// the cycle the segment ended, and whether the process completed. This
// is the last-core hint an affinity-aware policy (sched.AffinityRR)
// feeds on, delivered identically under both segment executors (both
// funnel through the one dispatch loop).
// SegmentDone is called before the corresponding Ready/Preempted
// announcement and must not affect whether a subsequent Pick succeeds.
type SegmentObserver interface {
	SegmentDone(id taskgraph.ProcID, core int, now int64, completed bool)
}

// AffinityHinter is an optional Dispatcher capability for warm-resume
// placement: AffinityHints yields, in dispatch-preference order, the
// last cores of pending processes whose cache contents are still
// expected warm, stopping early when yield returns false. When idle
// cores are requeued the engine wakes hinted cores first (then the rest
// in index order), so the same-cycle offer sequence reaches a preempted
// process's previous core before any colder one. Yielding must be
// deterministic and side-effect-free; a dispatcher that currently has
// no hints (e.g. ARR at affinity strength 0) simply yields nothing and
// leaves the wake order exactly as it would be without the capability.
type AffinityHinter interface {
	AffinityHints(now int64, yield func(core int) bool)
}

// CoreStats aggregates one core's activity.
type CoreStats struct {
	BusyCycles int64
	Segments   int64 // dispatched segments (≥ processes completed on core)
	Procs      int64 // processes completed on this core
	Cache      cache.Stats
}

// Segment is one contiguous execution of a process on a core, recorded
// when Config.RecordTimeline is set.
type Segment struct {
	Core      int
	Proc      taskgraph.ProcID
	Start     int64
	End       int64
	Completed bool
}

// Result is the outcome of one simulation run.
type Result struct {
	Policy      string
	Cycles      int64   // makespan in cycles
	Seconds     float64 // makespan at the configured clock
	PerCore     []CoreStats
	Total       cache.Stats                // all cores combined
	Completion  map[taskgraph.ProcID]int64 // per-process completion cycle
	Preemptions int64
	// AffineResumes and Migrations classify every resumed segment (a
	// dispatch of a process that already executed at least one segment):
	// a resume on the process's previous core is affine — its working
	// set may still be cached — and a resume elsewhere is a migration
	// onto a cold cache. Run-to-completion policies score zero on both.
	AffineResumes int64
	Migrations    int64
	IdleCycles    int64     // Σ cores (makespan − busy)
	Timeline      []Segment // populated when Config.RecordTimeline is set
}

// proc is one process as the engine sees it: its compiled trace cursor
// and dependence edges, fixed at construction, plus the scheduling state
// a run keeps for it (reset at the start of every run).
type proc struct {
	id     taskgraph.ProcID
	cur    *trace.RLECursor
	succs  []*proc // in ProcID order, the order successors are readied
	npreds int

	pending  int  // predecessors not yet completed
	lastCore int  // core of the previous segment, -1 before the first
	inFlight bool // dispatched, and its completion not yet popped
}

// segmentFunc simulates one segment: it advances cur on cache c until
// completion or quantum expiry (quantum 0 = no limit) and returns the
// consumed cycles. sc is owned by the calling executor.
type segmentFunc func(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64, sc *segScratch) (cycles int64, completed bool)

// segScratch is one executor's fast-forward scratch, sized to the widest
// reference group: the group's block numbers, the lines the boundary
// iteration found them in (hints for cache.TryAccessHitIters), and its
// write flags.
type segScratch struct {
	blocks, lines []int64
	writes        []bool
}

func newSegScratch(refs int) *segScratch {
	return &segScratch{blocks: make([]int64, refs), lines: make([]int64, refs), writes: make([]bool, refs)}
}

// Runner owns the per-run machinery of one (graph, address map, machine)
// triple: compiled strided-RLE trace cursors and per-core caches, built
// once and reset between runs. Separating construction from simulation
// keeps the measured path free of setup cost and lets repeated
// experiments (and benchmarks) reuse the compiled streams and cache
// arenas.
//
// A Runner is not safe for concurrent use; independent experiment cells
// build their own.
type Runner struct {
	cfg    Config
	procs  map[taskgraph.ProcID]*proc
	roots  []*proc // processes without predecessors, in ProcID order
	caches []*cache.Cache
	// Per-core cost tables from the machine model (see machine.go):
	// coreHitLat[c] is the core's speed-scaled hit latency, coreMissBase[c]
	// its base miss penalty including the topology hop term. On the
	// homogeneous zero-value Machine every entry equals cfg.HitLatency /
	// cfg.MissPenalty, so dispatch arithmetic is unchanged bit for bit.
	coreHitLat   []int64
	coreMissBase []int64
	// The event loop's segment scratch; pool helpers own theirs.
	scratch *segScratch
	// segment is runSegmentRLE; the differential tests swap in the
	// access-by-access oracle here.
	segment segmentFunc
}

// NewRunner validates the configuration and precompiles everything a run
// needs: the trace streams of every process under the address map, and
// the per-core caches. The graph is frozen: analyses and compiled
// streams are cached against its structure, so post-construction
// mutation is rejected from here on.
func NewRunner(g *taskgraph.Graph, am layout.AddressMap, cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("mpsoc: empty process graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.Freeze()

	gen := trace.NewGenerator(am)
	procs := make(map[taskgraph.ProcID]*proc, g.Len())
	maxRefs := 0
	for _, p := range g.Processes() {
		cur, err := gen.NewRLECursor(p.Spec)
		if err != nil {
			return nil, err
		}
		procs[p.ID] = &proc{id: p.ID, cur: cur, npreds: len(g.Preds(p.ID))}
		maxRefs = max(maxRefs, len(p.Spec.Refs))
	}
	var roots []*proc
	for _, id := range g.ProcIDs() {
		p := procs[id]
		for _, succ := range g.Succs(id) {
			p.succs = append(p.succs, procs[succ])
		}
		if p.npreds == 0 {
			roots = append(roots, p)
		}
	}

	caches := make([]*cache.Cache, cfg.Cores)
	for i := range caches {
		opts := []cache.Option{
			cache.WithReplacement(cfg.Replacement),
			cache.WithIndexing(cfg.Indexing),
			cache.WithWritePolicy(cfg.WritePolicy),
			cache.WithSeed(cfg.Seed + int64(i)),
		}
		if cfg.Classify {
			opts = append(opts, cache.WithClassification())
		}
		c, err := cache.New(cfg.Cache, opts...)
		if err != nil {
			return nil, err
		}
		caches[i] = c
	}
	coreHitLat, coreMissBase, err := cfg.coreCostTables()
	if err != nil {
		return nil, err
	}
	return &Runner{
		cfg: cfg, procs: procs, roots: roots, caches: caches,
		coreHitLat: coreHitLat, coreMissBase: coreMissBase,
		scratch: newSegScratch(maxRefs),
		segment: runSegmentRLE,
	}, nil
}

// resetForRun rewinds every cursor and cache and clears every process's
// scheduling state, so a reused Runner starts each run from scratch.
func (r *Runner) resetForRun() {
	for _, p := range r.procs {
		p.cur.Reset()
		p.pending, p.lastCore, p.inFlight = p.npreds, -1, false
	}
	for _, c := range r.caches {
		c.Reset()
	}
}

// execute simulates t on its core with the given scratch.
func (r *Runner) execute(t *segTask, sc *segScratch) {
	t.cycles, t.completed = r.segment(t.p.cur, r.caches[t.core], r.coreHitLat[t.core], t.penalty, r.cfg.WritebackPenalty, t.quantum, sc)
}

// Run simulates the EPG under the dispatcher, executing every segment
// inline at its dispatch. The dispatcher must be fresh (its ready/queue
// state is consumed); cursors and caches are reset automatically between
// runs.
func (r *Runner) Run(d Dispatcher) (*Result, error) {
	return r.RunParallel(d, 0)
}

// RunParallel simulates the EPG under the dispatcher like Run, but
// spreads segment simulations over workers goroutines (clamped to the
// core count): the event loop and workers−1 helpers. The Result is
// bit-identical to Run's for every dispatcher honouring the Dispatcher
// contract and every worker count (enforced by the differential
// suites); workers <= 1 is Run, with no goroutine started. It must not
// be called concurrently on one Runner.
func (r *Runner) RunParallel(d Dispatcher, workers int) (*Result, error) {
	s := r.newSimulation(d)
	var exec executor = inlineExec{s}
	if workers = min(workers, r.cfg.Cores); workers > 1 {
		exec = newPoolExec(s, workers-1)
	}
	defer exec.stop()
	return s.run(exec)
}

// segTask is one dispatched segment. Result fields are written by
// exactly one executor and read by the loop only after the task is
// finished; each core owns one reusable slot (a core cannot dispatch
// again until its previous segment's completion popped), so a queued
// completion names only its core and the slot holds the rest.
type segTask struct {
	core    int
	p       *proc
	penalty int64
	quantum int64
	start   int64 // dispatch cycle
	bound   int64 // pooled only: certified lower bound on the completion cycle

	cycles    int64
	completed bool
	// Pooled only: the handover between the loop and the helpers (see
	// poolExec).
	claimed, finished atomic.Bool
}

// executor simulates dispatched segments and hands each back to the
// loop through simulation.finish, which queues its completion.
// There are two: inlineExec below, and the pooled poolExec in
// parallel_engine.go.
type executor interface {
	// submit starts t's simulation.
	submit(t *segTask)
	// settle runs before every pop: it finishes each submitted segment
	// that could complete at or before the next pending event.
	settle()
	// stop waits for every submitted segment and releases the executor.
	stop()
}

// inlineExec simulates each segment at its dispatch on the loop
// goroutine, with the Runner's scratch, and queues its completion at
// once: no helpers, no lookahead bound, nothing left to settle.
type inlineExec struct{ s *simulation }

func (e inlineExec) submit(t *segTask) {
	r := e.s.r
	r.execute(t, r.scratch)
	e.s.finish(t)
}

func (inlineExec) settle() {}
func (inlineExec) stop()   {}

// simulation is the scheduling state of one run: the pending events,
// the idle-core set, and the Result being accumulated. Its loop is the
// only event loop in the package; which executor simulates the
// dispatched segments is invisible to everything the dispatcher
// observes.
//
// There are two kinds of event, kept apart. A completion (a segment
// ended: bookkeeping, then its core is free) goes in the timed heap
// done, keyed by its end cycle. An offer (a free core asks the
// dispatcher for work) is always made at the current cycle, so it goes
// in the FIFO offers. A completion always lands strictly after the
// cycle it is queued at (a segment runs at least one access), so one
// time-ordered queue holding both would pop each cycle's completions
// before its offers and the offers in push order. run pops in exactly
// that order: done while its head is at the current cycle, then the
// offers, then the next cycle's completions.
type simulation struct {
	r            *Runner
	d            Dispatcher
	observer     SegmentObserver
	hinter       AffinityHinter
	coreAgnostic bool

	res       *Result
	now       int64           // the current cycle: the time of the last popped event
	done      *sim.Queue[int] // completions by core, at their end cycle
	offers    []int           // cores to offer at now, in push order, from offerHead on
	offerHead int
	slots     []segTask // per-core task arena: a core runs one segment at a time
	idle      []bool
	idleCount int
	busyCores int
	remaining int
	makespan  int64
	// avail counts processes announced to the dispatcher (Ready or
	// Preempted) and not yet successfully picked: an upper bound on how
	// many idle-core offers can succeed, and zero means none can.
	avail int
}

func (r *Runner) newSimulation(d Dispatcher) *simulation {
	r.resetForRun()
	cores := r.cfg.Cores
	s := &simulation{
		r: r, d: d,
		done:      sim.NewQueue[int](),
		offers:    make([]int, 0, cores),
		slots:     make([]segTask, cores),
		idle:      make([]bool, cores),
		remaining: len(r.procs),
	}
	for _, p := range r.roots {
		d.Ready(p.id)
		s.avail++
	}
	if ca, ok := d.(CoreAgnostic); ok {
		s.coreAgnostic = ca.CoreAgnostic()
	}
	s.observer, _ = d.(SegmentObserver)
	s.hinter, _ = d.(AffinityHinter)
	s.res = &Result{
		Policy:     d.Name(),
		PerCore:    make([]CoreStats, cores),
		Completion: make(map[taskgraph.ProcID]int64, len(r.procs)),
	}
	for c := range s.slots {
		s.slots[c].core = c
		s.offers = append(s.offers, c)
	}
	return s
}

// nextTime returns the cycle of the next pending event; ok is false
// when nothing is pending.
func (s *simulation) nextTime() (t int64, ok bool) {
	if len(s.offers) > 0 {
		return s.now, true
	}
	t, _, ok = s.done.Peek()
	return t, ok
}

func (s *simulation) run(exec executor) (*Result, error) {
	for s.remaining > 0 {
		exec.settle()
		if now, core, ok := s.done.Peek(); ok && (len(s.offers) == 0 || now == s.now) {
			s.done.Pop()
			s.now = now
			s.complete(now, core)
			continue
		}
		if len(s.offers) == 0 {
			return nil, fmt.Errorf("mpsoc: deadlock under policy %s: %d processes never dispatched", s.d.Name(), s.remaining)
		}
		core := s.offers[s.offerHead]
		s.offerHead++
		if s.offerHead == len(s.offers) {
			// Offers drain before time advances, so the FIFO rewinds
			// whenever it empties and needs no ring.
			s.offers, s.offerHead = s.offers[:0], 0
		}
		t, err := s.dispatch(s.now, core)
		if err != nil {
			return nil, err
		}
		if t != nil {
			exec.submit(t)
		}
	}

	res, r := s.res, s.r
	res.Cycles = s.makespan
	res.Seconds = r.cfg.Seconds(s.makespan)
	for i := range r.caches {
		res.PerCore[i].Cache = r.caches[i].Stats()
		res.Total.Add(res.PerCore[i].Cache)
		res.IdleCycles += s.makespan - res.PerCore[i].BusyCycles
	}
	return res, nil
}

// complete handles a popped completion of core's segment: dependence
// and dispatcher bookkeeping, then the core is free again.
func (s *simulation) complete(now int64, core int) {
	t := &s.slots[core]
	p := t.p
	p.inFlight = false
	s.busyCores--
	if s.observer != nil {
		s.observer.SegmentDone(p.id, core, now, t.completed)
	}
	if t.completed {
		s.res.PerCore[core].Procs++
		s.res.Completion[p.id] = now
		s.makespan = max(s.makespan, now)
		s.remaining--
		for _, succ := range p.succs {
			succ.pending--
			if succ.pending == 0 {
				s.d.Ready(succ.id)
				s.avail++
			}
		}
	} else {
		s.res.Preemptions++
		s.d.Preempted(p.id)
		s.avail++
	}
	// Newly ready or requeued work may unblock idle cores, and this core
	// itself is free again.
	s.wakeIdle(now)
	if s.remaining > 0 {
		s.offers = append(s.offers, core)
	}
}

// dispatch offers a free core to the dispatcher and returns the picked
// segment's task, or nil when the core goes idle. Contract-violating
// picks are errors: an unknown process, one already in flight (whose
// cursor a second segment would slice), or one already completed.
func (s *simulation) dispatch(now int64, core int) (*segTask, error) {
	id, quantum, picked := s.d.Pick(core, now)
	if !picked {
		s.idle[core] = true
		s.idleCount++
		return nil, nil
	}
	s.avail--
	p, exists := s.r.procs[id]
	switch {
	case !exists:
		return nil, fmt.Errorf("mpsoc: policy %s picked unknown process %v", s.d.Name(), id)
	case p.inFlight:
		return nil, fmt.Errorf("mpsoc: policy %s picked in-flight process %v", s.d.Name(), id)
	case p.cur.Done():
		return nil, fmt.Errorf("mpsoc: policy %s re-picked completed process %v", s.d.Name(), id)
	}
	if p.lastCore == core {
		s.res.AffineResumes++
	} else if p.lastCore >= 0 {
		s.res.Migrations++
	}
	p.lastCore = core
	p.inFlight = true
	// Cost inputs come from the dispatched core's machine-model tables;
	// bus contention scales the whole off-chip penalty, hop term included.
	penalty := s.r.coreMissBase[core]
	if bf := s.r.cfg.BusFactor; bf > 0 && s.busyCores > 0 {
		penalty = int64(float64(penalty) * (1 + bf*float64(s.busyCores)))
	}
	s.busyCores++
	t := &s.slots[core]
	t.p, t.start, t.penalty, t.quantum = p, now, penalty, quantum
	return t, nil
}

// finish accounts an executed segment and queues its completion.
func (s *simulation) finish(t *segTask) {
	st := &s.res.PerCore[t.core]
	st.BusyCycles += t.cycles
	st.Segments++
	if s.r.cfg.RecordTimeline {
		s.res.Timeline = append(s.res.Timeline, Segment{
			Core: t.core, Proc: t.p.id, Start: t.start, End: t.start + t.cycles, Completed: t.completed,
		})
	}
	s.done.Push(t.start+t.cycles, t.core)
}

// wakeIdle requeues idle cores (in a deterministic order) without
// allocating. Offers that provably fail are elided — at 128 cores the
// all-but-one failed offers otherwise dominate preemptive schedules —
// but only at "quiet" timestamps: when another event is pending at this
// same cycle (FIFO order pops every same-cycle completion before any
// same-cycle offer), that event may ready more work before the offers
// pop, so all idle cores must be offered to keep the offer sequence —
// and with it the core↔process pairing — exactly as if nothing were
// elided. At a quiet timestamp nothing can inject work before the offers
// pop, so offers beyond the announced-work count avail fail for certain:
// none are pushed when avail is zero, and core-agnostic dispatchers
// (whose Pick success never depends on the core) need at most avail
// offers.
//
// The wake order is index order, except that an AffinityHinter's hinted
// cores are woken first: same-cycle offers pop FIFO, so the first
// woken core is the first to Pick, and putting a pending process's
// previous core there is what turns a would-be migration into a warm
// resume. The elision itself is unaffected — hints reorder the woken
// set, never enlarge it.
func (s *simulation) wakeIdle(now int64) {
	if s.idleCount == 0 {
		return
	}
	t, pending := s.nextTime()
	quiet := !pending || t != now
	if quiet && s.avail <= 0 {
		return
	}
	budget := s.idleCount
	if quiet && s.coreAgnostic && s.avail < budget {
		budget = s.avail
	}
	if s.hinter != nil && budget > 0 {
		s.hinter.AffinityHints(now, func(c int) bool {
			if c >= 0 && c < len(s.idle) && s.idle[c] {
				s.wake(c)
				budget--
			}
			return budget > 0 && s.idleCount > 0
		})
	}
	for c := range s.idle {
		if budget == 0 {
			break
		}
		if s.idle[c] {
			s.wake(c)
			budget--
		}
	}
}

func (s *simulation) wake(c int) {
	s.idle[c] = false
	s.idleCount--
	s.offers = append(s.offers, c)
}
