// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the locsched packages, checks that their outputs are
// correct, and prints every metric by name with its unit; the last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload ladder-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced;
// with --trace 1 it makes a traced run that records a span around every
// call into a layer and reports the per-layer metrics. README.md in this
// directory lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// unit is one pass of a workload's fixed operation set: a cold ladder
// regeneration, a warm ladder pass, or a block of served requests.
type unit struct {
	Seconds  float64 `json:"seconds"`
	Ops      int     `json:"ops"`
	Accesses int64   `json:"accesses"`
}

// result is what one workload run measured.
type result struct {
	Setup     []float64 // set-up samples, seconds
	Units     []unit    // measured passes
	Ops       []float64 // per-operation latencies, seconds; +Inf marks a failure
	SavingPct float64   // simulated makespan saving of the locality policy over RRS
	PeakRSSMB float64
	Attempted int
	Failed    int
	Digest    string   // digest of every simulated statistic (ladders)
	Problems  []string // output-check failures, for the record
	Layers    map[string]float64
	Spans     []span
	Info      map[string]any // sample counts and other context for the record
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*result, error){
	"ladder-cold": runLadderCold,
	"ladder-warm": runLadderWarm,
	"serve-mix":   runServeMix,
}

// opts are the command-line settings of one run.
type opts struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Out      string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o opts
	var trace int
	var child string
	flag.StringVar(&o.Workload, "workload", "", "workload to run: ladder-cold, ladder-warm or serve-mix")
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.Seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run and reports per-layer metrics")
	flag.StringVar(&o.Out, "out", ".bench_build/records", "directory the run record is written to")
	flag.StringVar(&child, "child", "", "internal: run one step of a workload in this process")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if o.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	o.Trace = trace == 1
	if child != "" {
		return runChild(child, o.Seed)
	}
	fn, ok := workloads[o.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ladder-cold, ladder-warm or serve-mix)", o.Workload)
	}
	start := time.Now()
	res, err := fn(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.Workload, err)
	}
	if len(res.Units) == 0 {
		return fmt.Errorf("%s: no pass completed in %gs", o.Workload, o.Seconds)
	}
	metrics := endToEnd(res)
	if o.Trace {
		metrics = perLayer(res)
	}
	rec := newRecord(o, res, metrics, time.Since(start))
	path, err := rec.write(o.Out)
	if err != nil {
		return err
	}
	printHuman(metrics, res)
	fmt.Printf("record: %s\n", path)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the end-to-end metrics from a run.
func endToEnd(r *result) map[string]metric {
	var unitS, opRate, accRate []float64
	for _, u := range r.Units {
		unitS = append(unitS, u.Seconds)
		opRate = append(opRate, float64(u.Ops)/u.Seconds)
		accRate = append(accRate, float64(u.Accesses)/u.Seconds)
	}
	ops := sortedCopy(r.Ops)
	p99, _ := highPercentile(ops, 99)
	return map[string]metric{
		"wall_s":             {median(unitS), "s"},
		"sim_accesses_per_s": {median(accRate), "accesses/s"},
		"rps":                {median(opRate), "1/s"},
		"p50_ms":             {ms(nearestRank(ops, 50)), "ms"},
		"p99_ms":             {ms(p99), "ms"},
		"setup_s":            {median(r.Setup), "s"},
		"peak_rss_mb":        {r.PeakRSSMB, "MiB"},
	}
}

// layerUnits lists every per-layer metric with its unit; a workload that
// does not exercise a layer reports 0 for it.
var layerUnits = map[string]string{
	"workload.build_s":              "s",
	"layout.pack_s":                 "s",
	"sharing.matrix_s":              "s",
	"sched.ls_s":                    "s",
	"sched.lsm_map_s":               "s",
	"sched.lsm_map_share_pct":       "%",
	"sched.lsm_relaid":              "count",
	"sched.lsm_pressure_ratio":      "1",
	"trace.compile_s":               "s",
	"trace.rle_segments":            "count",
	"mpsoc.sim_s":                   "s",
	"mpsoc.sim_s.rs":                "s",
	"mpsoc.sim_s.rrs":               "s",
	"mpsoc.sim_s.arr":               "s",
	"mpsoc.sim_s.ls":                "s",
	"mpsoc.sim_s.lsm":               "s",
	"mpsoc.accesses":                "count",
	"mpsoc.preemptions":             "count",
	"mpsoc.migrations":              "count",
	"mpsoc.affine_resumes":          "count",
	"cache.miss_rate":               "1",
	"cache.conflict_misses":         "count",
	"experiment.analysis_hit_ratio": "1",
	"experiment.runner_pool_hits":   "count",
	"server.cached_p50_ms":          "ms",
	"server.disk_p50_ms":            "ms",
	"server.cold_p50_ms":            "ms",
	"server.cold_p99_ms":            "ms",
	"server.hit_ratio":              "1",
	"server.disk_share":             "1",
	"server.coalesced":              "count",
	"server.queue_wait_p99_ms":      "ms",
	"server.execution_p50_ms":       "ms",
	"store.writes":                  "count",
	"store.hits":                    "count",
	"store.disk_bytes":              "bytes",
	"bench.trace_overhead_pct":      "%",
	"sim_saving_pct":                "%",
	"error_ratio":                   "1",
}

// perLayer reports every per-layer metric of a traced run.
func perLayer(r *result) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, u := range layerUnits {
		v := r.Layers[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, u}
	}
	out["sim_saving_pct"] = metric{r.SavingPct, "%"}
	out["error_ratio"] = metric{ratio(float64(r.Failed), float64(r.Attempted)), "1"}
	return out
}

// ms converts seconds to milliseconds. A failed operation (+Inf) reads
// as an hour, far beyond any latency limit; a percentile of no samples
// (NaN) reads 0, like a layer the workload does not exercise.
func ms(s float64) float64 {
	switch {
	case math.IsInf(s, 1):
		return 3.6e6
	case math.IsNaN(s):
		return 0
	}
	return s * 1e3
}

func printHuman(metrics map[string]metric, r *result) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if r.Digest != "" {
		fmt.Printf("sim_digest: %s\n", r.Digest)
	}
	for _, p := range r.Problems {
		fmt.Printf("check failed: %s\n", p)
	}
}
