package main

import (
	"runtime"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/workload"
)

// setupSamples is how many fresh processes repeat the ladder-warm set-up
// to sample its time; the run's own set-up is one more sample.
const setupSamples = 2

// warmState is the ladder-warm workload driven through the experiment
// layer: the drawn mixes and the set-up pass's cells, which every timed
// pass must reproduce exactly.
type warmState struct {
	rungs   []rung
	cfg     experiment.Config
	mixes   [][]*workload.App
	statics map[string]int64
	ref     []cell
}

// setup builds the mixes and runs every cell once, filling the analysis
// caches and the runner pool; it returns the time that took.
func (w *warmState) setup(seed int64, r *result) (float64, error) {
	var rsSeed int64
	w.rungs, rsSeed = drawLadder(seed, warmCores, warmFixedFrom)
	w.cfg = ladderConfig(rsSeed)
	t := time.Now()
	var err error
	if w.mixes, err = buildMixes(w.rungs, w.cfg.Workload); err != nil {
		return 0, err
	}
	if w.ref, _, err = w.runCells(); err != nil {
		return 0, err
	}
	secs := time.Since(t).Seconds()
	if w.statics, err = staticsOf(w.rungs, w.mixes); err != nil {
		return 0, err
	}
	checkCells(r, w.ref, w.statics)
	return secs, nil
}

// runCells runs every (rung, policy) cell once through experiment.RunMix
// and returns the cells with their host latencies.
func (w *warmState) runCells() ([]cell, []float64, error) {
	var cells []cell
	var lat []float64
	for i, rg := range w.rungs {
		c := rungConfig(w.cfg, rg)
		for _, p := range warmPolicies {
			t := time.Now()
			rr, err := experiment.RunMix(w.mixes[i], p, c)
			if err != nil {
				return nil, nil, err
			}
			secs := time.Since(t).Seconds()
			cells = append(cells, cellOf(rg.label(), rr, secs))
			lat = append(lat, secs)
		}
	}
	return cells, lat, nil
}

// passes runs timed passes until seconds have elapsed (at least one),
// checking each against the set-up pass.
func (w *warmState) passes(r *result, seconds float64) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(r.Units) == 0 || time.Now().Before(deadline) {
		t := time.Now()
		cells, lat, err := w.runCells()
		if err != nil {
			return err
		}
		r.Units = append(r.Units, unit{Seconds: time.Since(t).Seconds(), Ops: len(cells), Accesses: sumAccesses(cells)})
		r.Ops = append(r.Ops, lat...)
		for i, c := range cells {
			r.Attempted++
			if c.sim() != w.ref[i].sim() {
				r.fail("timed %s/%s differs from its set-up pass", c.Rung, c.Policy)
			}
		}
	}
	return nil
}

// runLadderWarm measures warm passes over the ladder. The set-up time is
// the median of this run's set-up and setupSamples fresh processes'.
func runLadderWarm(o opts) (*result, error) {
	if o.Trace {
		return runLadderWarmTraced(o)
	}
	res := &result{}
	for i := 0; i < setupSamples; i++ {
		out, err := spawn("warm-setup", o.Seed)
		if err != nil {
			return nil, err
		}
		res.Setup = append(res.Setup, out.Setup...)
	}
	var w warmState
	secs, err := w.setup(o.Seed, res)
	if err != nil {
		return nil, err
	}
	res.Setup = append(res.Setup, secs)
	res.Digest = digest(w.ref)
	res.SavingPct = savingPct(w.ref, experiment.LS)
	if err := w.passes(res, o.Seconds); err != nil {
		return nil, err
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// runLadderWarmTraced drives the warm ladder stage by stage with a span
// around every layer call for half the time, then runs the untraced
// experiment path for the other half: that half gives the tracing
// overhead, the experiment layer's cache counters, and the digest both
// halves must share.
func runLadderWarmTraced(o opts) (*result, error) {
	res := &result{Layers: make(map[string]float64), Info: make(map[string]any)}
	half := o.Seconds / 2
	cells, passS, segs, spans, err := warmStaged(o.Seed, half, res)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	var w warmState
	if _, err := w.setup(o.Seed, res); err != nil {
		return nil, err
	}
	untraced := &result{}
	before := experiment.Stats()
	if err := w.passes(untraced, half); err != nil {
		return nil, err
	}
	st := statsDelta(experiment.Stats(), before)
	res.Attempted += untraced.Attempted
	res.Failed += untraced.Failed
	res.Problems = append(res.Problems, untraced.Problems...)
	res.Digest = digest(w.ref)
	if d := digest(cells); d != res.Digest {
		res.fail("traced digest %s differs from untraced %s", d, res.Digest)
	}
	var untracedS []float64
	for _, u := range untraced.Units {
		untracedS = append(untracedS, u.Seconds)
	}
	res.Units = []unit{{Seconds: median(passS), Ops: len(cells), Accesses: sumAccesses(cells)}}
	res.Ops = passS
	res.Spans = spans
	res.SavingPct = savingPct(cells, experiment.LS)
	for k, v := range layerTimes(spans) {
		res.Layers[k] = v
	}
	simCounts(res.Layers, cells)
	res.Layers["trace.rle_segments"] = float64(segs)
	res.Layers["experiment.analysis_hit_ratio"] = analysisHitRatio(st)
	res.Layers["experiment.runner_pool_hits"] = float64(st.RunnerPoolHits) / float64(len(untraced.Units))
	res.Layers["bench.trace_overhead_pct"] = 100 * (median(passS)/median(untracedS) - 1)
	res.Info["untraced_pass_s"] = median(untracedS)
	res.Info["traced_passes"] = len(passS)
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// warmStaged is the traced half of a ladder-warm run: set-up (build,
// combine, pack, matrix, LS, trace compile) once, then timed passes of
// Runner.Run calls on the prepared runners until seconds have elapsed.
// It returns the first pass's cells, every pass's time, the compiled
// RLE segment count and the spans.
func warmStaged(seed int64, seconds float64, res *result) ([]cell, []float64, int64, []span, error) {
	rungs, rsSeed := drawLadder(seed, warmCores, warmFixedFrom)
	cfg := ladderConfig(rsSeed)
	tr := newTracer()
	root := tr.start("bench.ladder_warm", 0)
	setup := tr.start("bench.setup", root)
	mixes, err := tracedBuild(tr, setup, rungs, cfg.Workload)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	stages := make([]*staged, len(rungs))
	for i, r := range rungs {
		if stages[i], err = prepareStaged(tr, setup, r, mixes[i], cfg, false); err != nil {
			return nil, nil, 0, nil, err
		}
	}
	tr.end(setup)
	statics, err := staticsOf(rungs, mixes)
	if err != nil {
		return nil, nil, 0, nil, err
	}

	var first []cell
	var passS []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(passS) == 0 || time.Now().Before(deadline) {
		pass := tr.start("bench.pass", root)
		t := time.Now()
		var cells []cell
		for _, s := range stages {
			for _, p := range warmPolicies {
				c, err := s.simulate(tr, pass, p)
				if err != nil {
					return nil, nil, 0, nil, err
				}
				cells = append(cells, c)
			}
		}
		passS = append(passS, time.Since(t).Seconds())
		tr.end(pass)
		if first == nil {
			first = cells
			checkCells(res, cells, statics)
			continue
		}
		for i, c := range cells {
			res.Attempted++
			if c.sim() != first[i].sim() {
				res.fail("traced pass %s/%s differs from the first pass", c.Rung, c.Policy)
			}
		}
	}
	tr.end(root)
	var segs int64
	for _, s := range stages {
		n, err := rleSegments(s.g, s.base)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		segs += n
	}
	return first, passS, segs, tr.snapshot(), nil
}
