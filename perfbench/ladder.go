package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/layout"
	"locsched/internal/mpsoc"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/trace"
	"locsched/internal/workload"
)

// The two ladders: machine sizes (tasks = cores/4), the size from which
// rungs keep fig7xl's mix instead of a drawn one, and policy columns.
// The cold 128-core rung keeps its mix because its LSM relayout time
// alone varies by up to a third between drawn mixes (README.md).
var (
	coldCores     = []int{32, 64, 128}
	coldFixedFrom = 128
	coldPolicies  = []experiment.Policy{experiment.RS, experiment.RRS, experiment.LS, experiment.LSM}
	warmCores     = []int{32, 64, 128, 256}
	warmFixedFrom = math.MaxInt
	warmPolicies  = []experiment.Policy{experiment.RS, experiment.RRS, experiment.ARR, experiment.LS}
)

// setupRepeats is how many times a run repeats an in-process set-up
// step whose median it reports.
const setupRepeats = 5

// cell is one simulated (rung, policy) outcome. Every field but Seconds
// is a simulated statistic and enters the digest.
type cell struct {
	Rung          string            `json:"rung"`
	Policy        experiment.Policy `json:"policy"`
	Cycles        int64             `json:"cycles"`
	Hits          int64             `json:"hits"`
	Misses        int64             `json:"misses"`
	Conflicts     int64             `json:"conflicts"`
	Preemptions   int64             `json:"preemptions"`
	AffineResumes int64             `json:"affine_resumes"`
	Migrations    int64             `json:"migrations"`
	Relaid        int               `json:"relaid"`
	Seconds       float64           `json:"seconds"` // host time of the cell
}

func (c cell) accesses() int64 { return c.Hits + c.Misses }

// sim is the cell's simulated part, for equality checks.
func (c cell) sim() cell { c.Seconds = 0; return c }

func cellOf(rung string, r *experiment.RunResult, secs float64) cell {
	return cell{Rung: rung, Policy: r.Policy, Cycles: r.Cycles, Hits: r.Hits, Misses: r.Misses,
		Conflicts: r.Conflicts, Preemptions: r.Preemptions, AffineResumes: r.AffineResumes,
		Migrations: r.Migrations, Relaid: r.Relaid, Seconds: secs}
}

// digest hashes the simulated statistics of cells, in order.
func digest(cells []cell) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d|%d|%d|%d\n", c.Rung, c.Policy, c.Cycles, c.Hits, c.Misses,
			c.Conflicts, c.Preemptions, c.AffineResumes, c.Migrations, c.Relaid)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// savingPct is the total-makespan saving of policy best over RRS, in
// percent.
func savingPct(cells []cell, best experiment.Policy) float64 {
	var b, rrs float64
	for _, c := range cells {
		switch c.Policy {
		case best:
			b += float64(c.Cycles)
		case experiment.RRS:
			rrs += float64(c.Cycles)
		}
	}
	return 100 * (1 - ratio(b, rrs))
}

// checkCells verifies every cell simulated exactly its mix's static
// reference count (so all policies agree on it), counting each cell.
func checkCells(r *result, cells []cell, statics map[string]int64) {
	for _, c := range cells {
		r.Attempted++
		if c.accesses() != statics[c.Rung] {
			r.fail("%s/%s simulated %d accesses, the mix has %d", c.Rung, c.Policy, c.accesses(), statics[c.Rung])
		}
	}
}

// staticAccesses counts the memory references a mix's programs make.
func staticAccesses(apps []*workload.App) (int64, error) {
	var n int64
	for _, a := range apps {
		for _, p := range a.Graph.Processes() {
			k, err := p.Spec.Accesses()
			if err != nil {
				return 0, err
			}
			n += k
		}
	}
	return n, nil
}

// ladderConfig is the experiment configuration of both ladders: the
// paper's machine, one worker (locsched -par 1), the drawn RS seed.
func ladderConfig(rsSeed int64) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Workers = 1
	cfg.Seed = rsSeed
	return cfg
}

func rungConfig(cfg experiment.Config, r rung) experiment.Config {
	cfg.Machine.Cores = r.Cores
	return cfg
}

// buildMixes builds every rung's mix.
func buildMixes(rungs []rung, p workload.Params) ([][]*workload.App, error) {
	mixes := make([][]*workload.App, len(rungs))
	for i, r := range rungs {
		apps, err := buildMix(r, p)
		if err != nil {
			return nil, err
		}
		mixes[i] = apps
	}
	return mixes, nil
}

// staticsOf returns each rung's static reference count, by label.
func staticsOf(rungs []rung, mixes [][]*workload.App) (map[string]int64, error) {
	statics := make(map[string]int64, len(rungs))
	for i, r := range rungs {
		n, err := staticAccesses(mixes[i])
		if err != nil {
			return nil, err
		}
		statics[r.label()] = n
	}
	return statics, nil
}

// childOut is what a child process reports to the run that started it.
type childOut struct {
	Setup   []float64             `json:"setup"`
	Wall    float64               `json:"wall"`
	Cells   []cell                `json:"cells"`
	Statics map[string]int64      `json:"statics"`
	Stats   experiment.CacheStats `json:"stats"`
	Layers  map[string]float64    `json:"layers"`
	Spans   []span                `json:"spans"`
	RSSMB   float64               `json:"-"`
}

// runChild runs one in-process step for a parent run and prints its
// childOut as JSON.
func runChild(mode string, seed int64) error {
	var out *childOut
	var err error
	switch mode {
	case "cold-run":
		out, err = coldRegen(seed)
	case "cold-trace":
		out, err = coldTraced(seed)
	case "warm-setup":
		var s warmState
		var secs float64
		checks := &result{}
		secs, err = s.setup(seed, checks)
		if err == nil && checks.Failed > 0 {
			err = fmt.Errorf("set-up pass failed its checks: %v", checks.Problems)
		}
		out = &childOut{Setup: []float64{secs}}
	default:
		err = fmt.Errorf("unknown child step %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawn runs one child step in a fresh process and waits for it. A
// fresh process is what makes a regeneration cold: the experiment
// layer's analysis, intern and runner caches are process-wide.
func spawn(mode string, seed int64) (*childOut, error) {
	cmd, stdout, err := runSelf("-child", mode, "-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", mode, err)
	}
	var out childOut
	if err := json.Unmarshal(stdout, &out); err != nil {
		return nil, fmt.Errorf("child %s output: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &out, nil
}

// runSelf runs this program with args in a new process, waits for it,
// and returns its standard output; its standard error passes through.
func runSelf(args ...string) (*exec.Cmd, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	return cmd, stdout.Bytes(), err
}

// coldRegen is one cold regeneration through the experiment layer, as
// locsched fig7xl -par 1 runs it: every rung under RS, RRS, LS and LSM.
func coldRegen(seed int64) (*childOut, error) {
	rungs, rsSeed := drawLadder(seed, coldCores, coldFixedFrom)
	cfg := ladderConfig(rsSeed)
	out := &childOut{}
	var mixes [][]*workload.App
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		var err error
		if mixes, err = buildMixes(rungs, cfg.Workload); err != nil {
			return nil, err
		}
		out.Setup = append(out.Setup, time.Since(t).Seconds())
	}
	var err error
	if out.Statics, err = staticsOf(rungs, mixes); err != nil {
		return nil, err
	}
	before := experiment.Stats()
	t0 := time.Now()
	for i, r := range rungs {
		c := rungConfig(cfg, r)
		for _, p := range coldPolicies {
			t := time.Now()
			rr, err := experiment.RunMix(mixes[i], p, c)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", r.label(), p, err)
			}
			out.Cells = append(out.Cells, cellOf(r.label(), rr, time.Since(t).Seconds()))
		}
	}
	out.Wall = time.Since(t0).Seconds()
	out.Stats = statsDelta(experiment.Stats(), before)
	return out, nil
}

// statsDelta subtracts two experiment cache snapshots.
func statsDelta(a, b experiment.CacheStats) experiment.CacheStats {
	return experiment.CacheStats{
		MatrixHits: a.MatrixHits - b.MatrixHits, MatrixMisses: a.MatrixMisses - b.MatrixMisses,
		LSHits: a.LSHits - b.LSHits, LSMisses: a.LSMisses - b.LSMisses,
		LSMHits: a.LSMHits - b.LSMHits, LSMMisses: a.LSMMisses - b.LSMMisses,
		AnalysisEvictions: a.AnalysisEvictions - b.AnalysisEvictions,
		RunnerPoolHits:    a.RunnerPoolHits - b.RunnerPoolHits,
		InternHits:        a.InternHits - b.InternHits,
	}
}

// analysisHitRatio is the share of analysis-cache lookups that hit.
func analysisHitRatio(s experiment.CacheStats) float64 {
	hits := s.MatrixHits + s.LSHits + s.LSMHits
	return ratio(float64(hits), float64(hits+s.MatrixMisses+s.LSMisses+s.LSMMisses))
}

// staged is one rung's pipeline driven stage by stage, each stage a
// traced call into its layer, in place of the experiment layer's hidden
// sequence: combine → pack → sharing matrix → LS greedy → trace compile
// (mpsoc.NewRunner), and for LSM the mapping plus a second compile.
type staged struct {
	label     string
	cfg       experiment.Config
	g         *taskgraph.Graph
	base      *layout.Packed
	asg       *sched.Assignment
	runner    *mpsoc.Runner
	lsm       *sched.MappingResult
	lsmRunner *mpsoc.Runner
}

// tracedBuild builds every rung's mix, one workload.build span each.
func tracedBuild(tr *tracer, parent int, rungs []rung, p workload.Params) ([][]*workload.App, error) {
	mixes := make([][]*workload.App, len(rungs))
	for i, r := range rungs {
		err := timed(tr, "workload.build", parent, func() (err error) {
			mixes[i], err = buildMix(r, p)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return mixes, nil
}

// timed runs f inside a span named name under parent.
func timed(tr *tracer, name string, parent int, f func() error) error {
	id := tr.start(name, parent)
	defer tr.end(id)
	return f()
}

func prepareStaged(tr *tracer, parent int, r rung, apps []*workload.App, cfg experiment.Config, withLSM bool) (*staged, error) {
	s := &staged{label: r.label(), cfg: rungConfig(cfg, r)}
	cores, machine := s.cfg.Machine.Cores, s.cfg.Machine
	var arrays []*prog.Array
	var m *sharing.Matrix
	err := timed(tr, "workload.combine", parent, func() (err error) {
		s.g, arrays, err = workload.Combine(apps...)
		return err
	})
	if err == nil {
		err = timed(tr, "layout.pack", parent, func() (err error) {
			s.base, err = layout.Pack(s.cfg.Align, arrays...)
			return err
		})
	}
	if err == nil {
		err = timed(tr, "sharing.matrix", parent, func() (err error) {
			m, err = sharing.ComputeMatrixParallel(s.g, s.cfg.Workers)
			return err
		})
	}
	if err == nil {
		err = timed(tr, "sched.ls", parent, func() (err error) {
			s.asg, err = sched.LocalityScheduleBiased(s.g, m, cores, nil)
			return err
		})
	}
	if err == nil {
		err = timed(tr, "trace.compile", parent, func() (err error) {
			s.runner, err = mpsoc.NewRunner(s.g, s.base, machine)
			return err
		})
	}
	if err == nil && withLSM {
		err = timed(tr, "sched.lsm_map", parent, func() (err error) {
			_, s.lsm, err = sched.NewLSM(s.g, nil, s.asg, cores, s.base, machine.Cache, nil)
			return err
		})
		if err == nil {
			err = timed(tr, "trace.compile", parent, func() (err error) {
				s.lsmRunner, err = mpsoc.NewRunner(s.g, s.lsm.Layout, machine)
				return err
			})
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.label, err)
	}
	return s, nil
}

// dispatcher builds policy p's dispatcher exactly as the experiment
// layer does, with the runner it simulates on and its relaid count.
func (s *staged) dispatcher(p experiment.Policy) (mpsoc.Dispatcher, *mpsoc.Runner, int, error) {
	switch p {
	case experiment.RS:
		return sched.NewRandom(s.cfg.Seed), s.runner, 0, nil
	case experiment.RRS:
		d, err := sched.NewRoundRobin(s.cfg.Quantum)
		return d, s.runner, 0, err
	case experiment.ARR:
		d, err := sched.NewAffinityRR(sched.AffinityConfig{
			Quantum: s.cfg.Quantum, Window: s.cfg.Affinity, QBatch: s.cfg.QBatch, Decay: s.cfg.AffinityDecay,
		})
		if err != nil {
			return nil, nil, 0, err
		}
		d.SetCoreBias(s.cfg.Machine.Cores, nil)
		return d, s.runner, 0, nil
	case experiment.LS:
		return sched.NewStatic("LS", s.asg), s.runner, 0, nil
	case experiment.LSM:
		if s.lsm == nil {
			return nil, nil, 0, fmt.Errorf("%s: LSM mapping not prepared", s.label)
		}
		return sched.NewStatic("LSM", s.lsm.Assignment), s.lsmRunner, len(s.lsm.Banks), nil
	}
	return nil, nil, 0, fmt.Errorf("unsupported policy %s", p)
}

// simulate runs one cell inside a span named after its policy.
func (s *staged) simulate(tr *tracer, parent int, p experiment.Policy) (cell, error) {
	d, runner, relaid, err := s.dispatcher(p)
	if err != nil {
		return cell{}, err
	}
	var res *mpsoc.Result
	t := time.Now()
	err = timed(tr, "mpsoc.sim."+strings.ToLower(string(p)), parent, func() (err error) {
		res, err = runner.Run(d)
		return err
	})
	if err != nil {
		return cell{}, fmt.Errorf("%s/%s: %w", s.label, p, err)
	}
	return cell{Rung: s.label, Policy: p, Cycles: res.Cycles, Hits: res.Total.Hits, Misses: res.Total.Misses(),
		Conflicts: res.Total.Conflict, Preemptions: res.Preemptions, AffineResumes: res.AffineResumes,
		Migrations: res.Migrations, Relaid: relaid, Seconds: time.Since(t).Seconds()}, nil
}

// rleSegments counts the compiled run-length segments of every process
// stream under am. The streams are already compiled and shared, so this
// reads them without compiling again.
func rleSegments(g *taskgraph.Graph, am layout.AddressMap) (int64, error) {
	gen := trace.NewGenerator(am)
	var n int64
	for _, p := range g.Processes() {
		s, err := gen.RLE(p.Spec)
		if err != nil {
			return 0, err
		}
		n += int64(s.NumSegs())
	}
	return n, nil
}

// coldTraced is the traced cold regeneration: the same rungs and cells
// as coldRegen, driven stage by stage in a fresh process.
func coldTraced(seed int64) (*childOut, error) {
	rungs, rsSeed := drawLadder(seed, coldCores, coldFixedFrom)
	cfg := ladderConfig(rsSeed)
	tr := newTracer()
	root := tr.start("bench.ladder_cold", 0)
	out := &childOut{Layers: make(map[string]float64)}
	setup := tr.start("bench.setup", root)
	t := time.Now()
	mixes, err := tracedBuild(tr, setup, rungs, cfg.Workload)
	if err != nil {
		return nil, err
	}
	tr.end(setup)
	out.Setup = []float64{time.Since(t).Seconds()}
	if out.Statics, err = staticsOf(rungs, mixes); err != nil {
		return nil, err
	}

	pass := tr.start("bench.pass", root)
	t0 := time.Now()
	var stages []*staged
	for i, r := range rungs {
		rs := tr.start("bench.rung", pass)
		s, err := prepareStaged(tr, rs, r, mixes[i], cfg, true)
		if err != nil {
			return nil, err
		}
		for _, p := range coldPolicies {
			c, err := s.simulate(tr, rs, p)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, c)
		}
		tr.end(rs)
		stages = append(stages, s)
	}
	out.Wall = time.Since(t0).Seconds()
	tr.end(pass)
	tr.end(root)
	out.Spans = tr.snapshot()

	var before, after, relaid, segs float64
	for _, s := range stages {
		before += float64(s.lsm.PressureBefore)
		after += float64(s.lsm.PressureAfter)
		relaid += float64(len(s.lsm.Banks))
		for _, am := range []layout.AddressMap{s.base, s.lsm.Layout} {
			n, err := rleSegments(s.g, am)
			if err != nil {
				return nil, err
			}
			segs += float64(n)
		}
	}
	out.Layers["sched.lsm_relaid"] = relaid
	out.Layers["sched.lsm_pressure_ratio"] = ratio(after, before)
	out.Layers["lsm_pressure_before"] = before
	out.Layers["lsm_pressure_after"] = after
	out.Layers["trace.rle_segments"] = segs
	return out, nil
}

// simCounts sums one pass's simulated statistics into the per-layer
// count metrics.
func simCounts(layers map[string]float64, cells []cell) {
	var acc, miss, conf, pre, mig, aff float64
	for _, c := range cells {
		acc += float64(c.accesses())
		miss += float64(c.Misses)
		conf += float64(c.Conflicts)
		pre += float64(c.Preemptions)
		mig += float64(c.Migrations)
		aff += float64(c.AffineResumes)
	}
	layers["mpsoc.accesses"] = acc
	layers["mpsoc.preemptions"] = pre
	layers["mpsoc.migrations"] = mig
	layers["mpsoc.affine_resumes"] = aff
	layers["cache.miss_rate"] = ratio(miss, acc)
	layers["cache.conflict_misses"] = conf
}

// runLadderCold regenerates the XL ladder in fresh processes while
// measured time remains. A traced run makes one untraced and one traced
// regeneration and checks that both simulate the same statistics.
func runLadderCold(o opts) (*result, error) {
	res := &result{Layers: make(map[string]float64), Info: make(map[string]any)}
	add := func(out *childOut) {
		checkCells(res, out.Cells, out.Statics)
		res.Setup = append(res.Setup, out.Setup...)
		res.PeakRSSMB = max(res.PeakRSSMB, out.RSSMB)
		d := digest(out.Cells)
		switch {
		case res.Digest == "":
			res.Digest = d
			res.SavingPct = savingPct(out.Cells, experiment.LSM)
		case d != res.Digest:
			res.fail("regeneration digest %s differs from %s", d, res.Digest)
		}
	}
	if o.Trace {
		base, err := spawn("cold-run", o.Seed)
		if err != nil {
			return nil, err
		}
		add(base)
		traced, err := spawn("cold-trace", o.Seed)
		if err != nil {
			return nil, err
		}
		add(traced)
		res.Units = []unit{{Seconds: traced.Wall, Ops: 1, Accesses: sumAccesses(traced.Cells)}}
		res.Ops = []float64{traced.Wall}
		res.Spans = traced.Spans
		for k, v := range layerTimes(traced.Spans) {
			res.Layers[k] = v
		}
		for k, v := range traced.Layers {
			if _, ok := layerUnits[k]; ok {
				res.Layers[k] = v
			} else {
				res.Info[k] = v
			}
		}
		simCounts(res.Layers, traced.Cells)
		res.Layers["sched.lsm_map_share_pct"] = 100 * res.Layers["sched.lsm_map_s"] / traced.Wall
		res.Layers["experiment.analysis_hit_ratio"] = analysisHitRatio(base.Stats)
		res.Layers["experiment.runner_pool_hits"] = float64(base.Stats.RunnerPoolHits)
		res.Layers["bench.trace_overhead_pct"] = 100 * (traced.Wall/base.Wall - 1)
		res.Info["untraced_wall_s"] = base.Wall
		return res, nil
	}
	start := time.Now()
	for time.Since(start).Seconds() < o.Seconds {
		out, err := spawn("cold-run", o.Seed)
		if err != nil {
			return nil, err
		}
		add(out)
		res.Units = append(res.Units, unit{Seconds: out.Wall, Ops: 1, Accesses: sumAccesses(out.Cells)})
		res.Ops = append(res.Ops, out.Wall)
	}
	return res, nil
}

func sumAccesses(cells []cell) int64 {
	var n int64
	for _, c := range cells {
		n += c.accesses()
	}
	return n
}
