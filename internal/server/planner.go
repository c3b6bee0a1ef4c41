package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/mpsoc"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// Job is one admitted unit of work: a content-addressed key plus the
// closure that computes the canonical response bytes. Everything about a
// request that can change its result is folded into Key, so the queue,
// coalescer, and result cache never need to look inside Run.
type Job struct {
	// Key is the content-addressed request identity: endpoint, workload
	// graph/layout fingerprints, and canonical config digest.
	Key string
	// Deadline optionally lowers the server's request timeout for this
	// job's waiters; 0 means the server default. It can never raise it.
	Deadline time.Duration
	// Run computes the response bytes. It is executed at most once per
	// pending Key (singleflight) on the worker pool.
	Run func() ([]byte, error)
}

// Planner turns a raw endpoint request body into a Job. Plan errors are
// client errors (400); Run errors are execution failures (500). The
// production planner is NewPlanner's; tests substitute scripted
// planners to drive the queue/coalescer/cache machinery directly.
type Planner interface {
	// Plan parses and resolves one request for the named endpoint
	// ("run", "figure", or "analysis").
	Plan(endpoint string, body []byte) (*Job, error)
}

// WorkloadSpec names the workload of a request: exactly one of the three
// fields must be set.
type WorkloadSpec struct {
	// App runs one Table 1 application in isolation (a fig6 cell), by
	// name (see workload.Names).
	App string `json:"app,omitempty"`
	// Mix runs a generated |T|-task concurrent mix (a fig7/fig7xl-style
	// cell) built by cycling the Table 1 suite.
	Mix int `json:"mix,omitempty"`
	// TaskSet is an inline JSON task-set description in the LoadApps
	// format (see internal/workload); several tasks are merged into one
	// concurrent EPG.
	TaskSet json.RawMessage `json:"task_set,omitempty"`
	// Scale overrides the workload scale factor for app and mix
	// workloads (0 = server default; rejected with task_set, whose
	// iteration spaces are explicit).
	Scale int `json:"scale,omitempty"`
}

// ConfigSpec is the per-request machine/policy override set; zero fields
// keep the server's base configuration. It deliberately mirrors the CLI
// flags rather than exposing every experiment.Config knob.
type ConfigSpec struct {
	// Cores overrides the core count.
	Cores int `json:"cores,omitempty"`
	// CacheKB overrides the per-core L1 size, in KiB.
	CacheKB int64 `json:"cache_kb,omitempty"`
	// Assoc overrides the L1 associativity.
	Assoc int `json:"assoc,omitempty"`
	// MissPenalty overrides the off-chip penalty, in cycles.
	MissPenalty int64 `json:"miss_penalty,omitempty"`
	// Quantum overrides the RRS/ARR time slice, in cycles.
	Quantum int64 `json:"quantum,omitempty"`
	// Seed overrides the RS randomization seed.
	Seed int64 `json:"seed,omitempty"`
	// Affinity overrides ARR's affinity window (nil = base).
	Affinity *int `json:"affinity,omitempty"`
	// QBatch overrides ARR's quanta per warm resume (nil = base).
	QBatch *int `json:"qbatch,omitempty"`
	// AffinityDecay overrides ARR's staleness bound (nil = base).
	AffinityDecay *int64 `json:"adecay,omitempty"`
	// SpeedClasses sets the per-core speed-class mix, as a comma-separated
	// cycle-multiplier list cycled across cores ("" = uniform speed; see
	// mpsoc.Machine.SpeedClasses). Magnitudes are capped by
	// mpsoc.Machine.Validate.
	SpeedClasses string `json:"speed_classes,omitempty"`
	// Topology sets the interconnect shape: "bus" (default), "mesh", or
	// "ring".
	Topology string `json:"topology,omitempty"`
	// HopPenalty sets the extra miss cost per interconnect hop, in cycles
	// (nil = 0; capped by mpsoc.MaxHopPenalty).
	HopPenalty *int64 `json:"hop_penalty,omitempty"`
}

// RunRequest is the /v1/run body: one workload under one policy.
type RunRequest struct {
	// Workload selects what to simulate.
	Workload WorkloadSpec `json:"workload"`
	// Policy names the scheduling strategy (rs, rrs, arr, sjf, cpl, ls, lsm).
	Policy string `json:"policy"`
	// Config optionally overrides machine/policy parameters.
	Config ConfigSpec `json:"config,omitempty"`
	// DeadlineMillis optionally lowers the request deadline.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// FigureRequest is the /v1/figure body: a whole reproduced figure. The
// response is byte-identical to `locsched -json <figure>` output.
type FigureRequest struct {
	// Figure selects the evaluation: "fig6", "fig7", or "fig7xl".
	Figure string `json:"figure"`
	// Policies selects the columns (empty = the paper's four).
	Policies []string `json:"policies,omitempty"`
	// XLPoints optionally overrides the fig7xl ladder.
	XLPoints []XLPointSpec `json:"xl_points,omitempty"`
	// Scale overrides the workload scale factor (0 = server default).
	Scale int `json:"scale,omitempty"`
	// Config optionally overrides machine/policy parameters.
	Config ConfigSpec `json:"config,omitempty"`
	// DeadlineMillis optionally lowers the request deadline.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// XLPointSpec is one (cores, tasks) rung of a requested fig7xl ladder.
type XLPointSpec struct {
	// Cores is the machine's core count at this rung.
	Cores int `json:"cores"`
	// Tasks is the generated mix size at this rung.
	Tasks int `json:"tasks"`
}

// AnalysisRequest is the /v1/analysis body: scheduling analysis only
// (sharing matrix + the Figure 3 greedy), no simulation.
type AnalysisRequest struct {
	// Workload selects what to analyze.
	Workload WorkloadSpec `json:"workload"`
	// Cores is the core count to schedule for (0 = server base).
	Cores int `json:"cores,omitempty"`
	// DeadlineMillis optionally lowers the request deadline.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// RunResponse is the /v1/run response body.
type RunResponse struct {
	// Key is the request's content-addressed identity (useful for
	// correlating with /statsz and for client-side caching).
	Key string `json:"key"`
	// Workload is the resolved workload label.
	Workload string `json:"workload"`
	// Policy is the resolved policy name.
	Policy string `json:"policy"`
	// Cycles is the simulated makespan in cycles.
	Cycles int64 `json:"cycles"`
	// Millis is the simulated makespan in milliseconds.
	Millis float64 `json:"millis"`
	// Hits is the aggregate L1 hit count.
	Hits int64 `json:"hits"`
	// Misses is the aggregate L1 miss count.
	Misses int64 `json:"misses"`
	// MissRate is Misses over total accesses.
	MissRate float64 `json:"miss_rate"`
	// Conflicts counts classified conflict misses.
	Conflicts int64 `json:"conflict_misses"`
	// Preemptions counts forced preemptions.
	Preemptions int64 `json:"preemptions"`
	// AffineResumes counts resumed segments dispatched back to the
	// process's previous core.
	AffineResumes int64 `json:"affine_resumes"`
	// Migrations counts resumed segments dispatched to a different core.
	Migrations int64 `json:"migrations"`
	// Relaid counts arrays moved by the LSM mapping phase.
	Relaid int `json:"relaid_arrays"`
}

// AnalysisResponse is the /v1/analysis response body.
type AnalysisResponse struct {
	// Key is the request's content-addressed identity.
	Key string `json:"key"`
	// Workload is the resolved workload label.
	Workload string `json:"workload"`
	// Cores is the scheduled core count.
	Cores int `json:"cores"`
	// Processes is the total number of scheduled processes.
	Processes int `json:"processes"`
	// PerCore lists the static LS order per core, as process IDs.
	PerCore [][]string `json:"per_core"`
}

// experimentPlanner is the production Planner: it resolves workloads
// through the workload builders (including the LoadApps JSON path),
// derives content-addressed keys from the experiment layer's
// fingerprints, and executes through the shared experiment caches.
//
// Resolution is memoized per request identity (app/mix name + scale, or
// the hash of an inline task-set's raw bytes): the hot serving path —
// repeats that the result cache or coalescer will absorb — must not
// rebuild and re-hash workload graphs on every request just to derive
// the key. The memo is bounded and cleared wholesale when full.
type experimentPlanner struct {
	base       experiment.Config
	expWorkers int

	mu        sync.Mutex
	workloads map[string]*resolvedWorkload
	figures   map[string]string // figure request identity → workload hash
	// flight dedups concurrent cold resolutions: they run on handler
	// goroutines, ahead of the bounded job queue, so they must not
	// multiply.
	flight *coalescer[any]
}

// resolvedWorkload is one memoized workload resolution: the canonical
// objects plus the content key (computed once; the packing alignment is
// the base block size, which no request override can change).
type resolvedWorkload struct {
	name   string
	g      *taskgraph.Graph
	arrays []*prog.Array
	ck     string
}

// maxPlannerMemo bounds the planner's resolution memos.
const maxPlannerMemo = 256

// Service limits: the daemon is long-lived, so a single request must
// not be able to ask for a workload or machine large enough to exhaust
// memory (the one-shot CLI could afford unbounded flags; a server
// cannot). The bounds sit comfortably above the largest evaluated
// scenario (XLLadder(1024): 1024 cores, 256 tasks).
const (
	// maxReqMix bounds generated-mix task counts per request.
	maxReqMix = 1024
	// maxReqCores bounds the simulated core count per request.
	maxReqCores = 4096
	// maxReqScale bounds the workload scale factor per request.
	maxReqScale = 64
	// maxReqCacheKB bounds the per-core L1 size override (KiB).
	maxReqCacheKB = 1 << 16
	// maxReqAssoc bounds the associativity override.
	maxReqAssoc = 1024
	// maxReqSimBytes bounds the *product* cores × per-core cache size:
	// the simulator allocates line state proportional to it, so the
	// per-dimension caps alone would still admit a request whose
	// combination exhausts memory (4096 cores × 64 MiB caches). It is
	// enforced on the resolved machine config and on every fig7xl
	// ladder point (which overrides the core count per point).
	maxReqSimBytes = 1 << 30
	// maxReqXLPoints bounds a requested fig7xl ladder's length: each
	// point costs plan-time mix construction, so the count must be
	// capped like every other request magnitude.
	maxReqXLPoints = 16
)

// NewPlanner builds the production planner from the server config:
// experiment defaults, the daemon's scale override, and intra-request
// worker bound. New uses it when given no planner; callers that wrap
// the real planner (to observe or gate its jobs) start from it.
func NewPlanner(cfg Config) Planner {
	base := experiment.DefaultConfig()
	if cfg.Scale > 0 {
		base.Workload.Scale = cfg.Scale
	}
	workers := cfg.ExpWorkers
	if workers == 0 {
		workers = 1
	}
	base.Workers = workers
	base.SimWorkers = cfg.SimWorkers
	return &experimentPlanner{
		base:       base,
		expWorkers: workers,
		workloads:  make(map[string]*resolvedWorkload),
		figures:    make(map[string]string),
		flight:     newCoalescer[any](),
	}
}

// Plan implements Planner.
func (p *experimentPlanner) Plan(endpoint string, body []byte) (*Job, error) {
	switch endpoint {
	case "run":
		return p.planRun(body)
	case "figure":
		return p.planFigure(body)
	case "analysis":
		return p.planAnalysis(body)
	}
	return nil, fmt.Errorf("server: unknown endpoint %q", endpoint)
}

// decodeStrict parses JSON rejecting unknown fields and trailing data.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: parsing request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("server: trailing data after request body")
	}
	return nil
}

// resolveConfig applies a request's overrides to the base configuration
// and validates the result.
func (p *experimentPlanner) resolveConfig(spec ConfigSpec, scale int) (experiment.Config, error) {
	cfg := p.base
	if spec.Cores < 0 || spec.CacheKB < 0 || spec.Assoc < 0 ||
		spec.MissPenalty < 0 || spec.Quantum < 0 || spec.Seed < 0 {
		return cfg, fmt.Errorf("server: config overrides must be non-negative (0 = keep the base value)")
	}
	if spec.Cores > maxReqCores || spec.CacheKB > maxReqCacheKB || spec.Assoc > maxReqAssoc {
		return cfg, fmt.Errorf("server: config overrides exceed service limits (cores ≤ %d, cache_kb ≤ %d, assoc ≤ %d)",
			maxReqCores, maxReqCacheKB, maxReqAssoc)
	}
	if scale < 0 || scale > maxReqScale {
		return cfg, fmt.Errorf("server: scale %d out of range [0, %d]", scale, maxReqScale)
	}
	if scale > 0 {
		cfg.Workload.Scale = scale
	}
	if spec.Cores > 0 {
		cfg.Machine.Cores = spec.Cores
	}
	if spec.CacheKB > 0 {
		cfg.Machine.Cache.Size = spec.CacheKB << 10
	}
	if spec.Assoc > 0 {
		cfg.Machine.Cache.Assoc = spec.Assoc
	}
	if spec.MissPenalty > 0 {
		cfg.Machine.MissPenalty = spec.MissPenalty
	}
	if spec.Quantum > 0 {
		cfg.Quantum = spec.Quantum
	}
	if spec.Seed > 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Affinity != nil {
		cfg.Affinity = *spec.Affinity
	}
	if spec.QBatch != nil {
		cfg.QBatch = *spec.QBatch
	}
	if spec.AffinityDecay != nil {
		cfg.AffinityDecay = *spec.AffinityDecay
	}
	// Machine-model overrides: parsed/capped by mpsoc (ParseTopology and,
	// via cfg.Validate below, Machine.Validate's speed-class and
	// hop-penalty bounds).
	if spec.SpeedClasses != "" {
		cfg.Machine.Machine.SpeedClasses = spec.SpeedClasses
	}
	if spec.Topology != "" {
		topo, err := mpsoc.ParseTopology(spec.Topology)
		if err != nil {
			return cfg, err
		}
		cfg.Machine.Machine.Topology = topo
	}
	if spec.HopPenalty != nil {
		cfg.Machine.Machine.HopPenalty = *spec.HopPenalty
	}
	cfg.Align = cfg.Machine.Cache.BlockSize
	cfg.Workers = p.expWorkers
	if total := int64(cfg.Machine.Cores) * cfg.Machine.Cache.Size; total > maxReqSimBytes {
		return cfg, fmt.Errorf("server: cores × cache size = %d bytes exceeds the service limit %d",
			total, int64(maxReqSimBytes))
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// resolveWorkload returns the memoized resolution of a WorkloadSpec:
// the canonical (name, graph, arrays) triple plus its content key. A
// memo hit — the steady state for every repeated request — costs one
// map lookup; only first contact with a workload identity builds graphs
// and hashes content. Inline task sets are memoized by the hash of
// their raw bytes, so re-sending identical JSON text never rebuilds
// (textually distinct but content-equal task sets still converge on the
// same content key, just through a fresh resolution).
func (p *experimentPlanner) resolveWorkload(ws WorkloadSpec) (*resolvedWorkload, error) {
	set := 0
	if ws.App != "" {
		set++
	}
	if ws.Mix > 0 {
		set++
	}
	if len(ws.TaskSet) > 0 {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("server: workload must set exactly one of app, mix, task_set")
	}
	if ws.Mix > maxReqMix {
		return nil, fmt.Errorf("server: mix %d exceeds the service limit %d", ws.Mix, maxReqMix)
	}
	if ws.Scale < 0 || ws.Scale > maxReqScale {
		return nil, fmt.Errorf("server: workload scale %d out of range [0, %d]", ws.Scale, maxReqScale)
	}
	if len(ws.TaskSet) > 0 && ws.Scale != 0 {
		// An inline task set states its iteration spaces explicitly; a
		// scale would be silently ignored (and would needlessly fork the
		// request key), so reject it instead.
		return nil, fmt.Errorf("server: scale does not apply to task_set workloads")
	}
	params := p.base.Workload
	if ws.Scale > 0 {
		params.Scale = ws.Scale
	}

	var memoKey string
	switch {
	case ws.App != "":
		memoKey = fmt.Sprintf("app|%s|s%d", ws.App, params.Scale)
	case ws.Mix > 0:
		memoKey = fmt.Sprintf("mix|%d|s%d", ws.Mix, params.Scale)
	default:
		sum := sha256.Sum256(ws.TaskSet)
		memoKey = fmt.Sprintf("set|%s|s%d", hex.EncodeToString(sum[:]), params.Scale)
	}
	p.mu.Lock()
	rw, ok := p.workloads[memoKey]
	p.mu.Unlock()
	if ok {
		return rw, nil
	}

	v, err := p.flight.do(memoKey, func() (any, error) {
		rw := &resolvedWorkload{}
		switch {
		case ws.App != "":
			app, err := workload.Build(ws.App, 0, params)
			if err != nil {
				return nil, err
			}
			rw.name, rw.g, rw.arrays = app.Name, app.Graph, app.Arrays
		case ws.Mix > 0:
			apps, err := workload.BuildMany(ws.Mix, params)
			if err != nil {
				return nil, err
			}
			g, arrays, err := experiment.CombineApps(apps)
			if err != nil {
				return nil, err
			}
			rw.name, rw.g, rw.arrays = fmt.Sprintf("|T|=%d", ws.Mix), g, arrays
		default:
			apps, err := workload.FromJSON(bytes.NewReader(ws.TaskSet))
			if err != nil {
				return nil, err
			}
			if len(apps) == 1 {
				rw.name, rw.g, rw.arrays = apps[0].Name, apps[0].Graph, apps[0].Arrays
			} else {
				g, arrays, err := experiment.CombineApps(apps)
				if err != nil {
					return nil, err
				}
				rw.name, rw.g, rw.arrays = fmt.Sprintf("|T|=%d", len(apps)), g, arrays
			}
		}
		// The content key's alignment component is the base block size:
		// no ConfigSpec override can change it, so one key per workload
		// holds for every request configuration.
		ck, err := experiment.ContentKey(rw.g, rw.arrays, p.base.Align)
		if err != nil {
			return nil, err
		}
		rw.ck = ck

		p.mu.Lock()
		if prior, ok := p.workloads[memoKey]; ok {
			rw = prior
		} else {
			if len(p.workloads) >= maxPlannerMemo {
				p.workloads = make(map[string]*resolvedWorkload)
			}
			p.workloads[memoKey] = rw
		}
		p.mu.Unlock()
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*resolvedWorkload), nil
}

// deadlineOf converts a request's deadline_ms to a duration.
func deadlineOf(millis int64) (time.Duration, error) {
	if millis < 0 {
		return 0, fmt.Errorf("server: deadline_ms %d must be non-negative", millis)
	}
	return time.Duration(millis) * time.Millisecond, nil
}

// planRun resolves a /v1/run request.
func (p *experimentPlanner) planRun(body []byte) (*Job, error) {
	var req RunRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	policy, err := experiment.ParsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	cfg, err := p.resolveConfig(req.Config, req.Workload.Scale)
	if err != nil {
		return nil, err
	}
	rw, err := p.resolveWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	deadline, err := deadlineOf(req.DeadlineMillis)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("run|%s|%s|%s", rw.ck, policy, experiment.ConfigDigest(cfg))
	return &Job{
		Key:      key,
		Deadline: deadline,
		Run: func() ([]byte, error) {
			res, err := experiment.RunGraph(rw.name, rw.g, rw.arrays, policy, cfg)
			if err != nil {
				return nil, err
			}
			return marshalBody(RunResponse{
				Key:           key,
				Workload:      res.Workload,
				Policy:        string(res.Policy),
				Cycles:        res.Cycles,
				Millis:        res.Seconds * 1e3,
				Hits:          res.Hits,
				Misses:        res.Misses,
				MissRate:      res.MissRate(),
				Conflicts:     res.Conflicts,
				Preemptions:   res.Preemptions,
				AffineResumes: res.AffineResumes,
				Migrations:    res.Migrations,
				Relaid:        res.Relaid,
			})
		},
	}, nil
}

// planFigure resolves a /v1/figure request. The response bytes are
// produced by experiment.WriteJSON, so they are byte-identical to the
// CLI's `-json` output for the same figure and configuration.
func (p *experimentPlanner) planFigure(body []byte) (*Job, error) {
	var req FigureRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	var policies []experiment.Policy
	for _, name := range req.Policies {
		pol, err := experiment.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		policies = append(policies, pol)
	}
	cfg, err := p.resolveConfig(req.Config, req.Scale)
	if err != nil {
		return nil, err
	}
	deadline, err := deadlineOf(req.DeadlineMillis)
	if err != nil {
		return nil, err
	}

	// The workload half of the key: the content fingerprints of every
	// constituent application graph (mixes are merged at run time from
	// these same graphs, so the constituent set is the identity). The
	// hash is memoized per (figure, scale, ladder) so repeats — which
	// the result cache will absorb — never rebuild the graphs.
	params := cfg.Workload
	var points []experiment.XLPoint
	switch req.Figure {
	case "fig6", "fig7":
		if len(req.XLPoints) > 0 {
			return nil, fmt.Errorf("server: xl_points only applies to fig7xl")
		}
	case "fig7xl":
		points = experiment.DefaultXLPoints()
		if len(req.XLPoints) > 0 {
			if len(req.XLPoints) > maxReqXLPoints {
				return nil, fmt.Errorf("server: %d xl points exceed the service limit %d", len(req.XLPoints), maxReqXLPoints)
			}
			points = points[:0]
			for _, sp := range req.XLPoints {
				if sp.Cores <= 0 || sp.Tasks <= 0 {
					return nil, fmt.Errorf("server: xl point %+v: cores and tasks must be positive", sp)
				}
				if sp.Cores > maxReqCores || sp.Tasks > maxReqMix {
					return nil, fmt.Errorf("server: xl point %+v exceeds service limits (cores ≤ %d, tasks ≤ %d)",
						sp, maxReqCores, maxReqMix)
				}
				points = append(points, experiment.XLPoint{Cores: sp.Cores, Tasks: sp.Tasks})
			}
		}
		// Figure7XL overrides the core count per point, so the resolved
		// config's cores × cache product check does not cover it.
		for _, pt := range points {
			if total := int64(pt.Cores) * cfg.Machine.Cache.Size; total > maxReqSimBytes {
				return nil, fmt.Errorf("server: xl point %v × cache size = %d bytes exceeds the service limit %d",
					pt, total, int64(maxReqSimBytes))
			}
		}
	default:
		return nil, fmt.Errorf("server: unknown figure %q (want fig6, fig7, or fig7xl)", req.Figure)
	}
	wlHash, err := p.figureWorkloadHash(req.Figure, params, points)
	if err != nil {
		return nil, err
	}
	run := func() (*experiment.Table, error) {
		switch req.Figure {
		case "fig6":
			return experiment.Figure6(cfg, policies)
		case "fig7":
			return experiment.Figure7(cfg, policies)
		default:
			return experiment.Figure7XL(cfg, points, policies)
		}
	}

	polNames := make([]string, len(policies))
	for i, pol := range policies {
		polNames[i] = string(pol)
	}
	key := fmt.Sprintf("figure|%s|%s|p=%s|%s",
		req.Figure, wlHash, strings.Join(polNames, ","), experiment.ConfigDigest(cfg))
	return &Job{
		Key:      key,
		Deadline: deadline,
		Run: func() ([]byte, error) {
			tab, err := run()
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := experiment.WriteJSON(&buf, tab); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
	}, nil
}

// figureWorkloadHash returns the (memoized) hash over the content
// fingerprints of a figure's constituent application graphs. Concurrent
// cold requests for the same figure identity compute it once.
func (p *experimentPlanner) figureWorkloadHash(figure string, params workload.Params, points []experiment.XLPoint) (string, error) {
	memoKey := fmt.Sprintf("%s|s%d|%v", figure, params.Scale, points)
	p.mu.Lock()
	hash, ok := p.figures[memoKey]
	p.mu.Unlock()
	if ok {
		return hash, nil
	}
	v, err := p.flight.do("fig|"+memoKey, func() (any, error) {
		h := sha256.New()
		if figure == "fig7xl" {
			for _, pt := range points {
				apps, err := workload.BuildMany(pt.Tasks, params)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(h, "c%d:", pt.Cores)
				for _, a := range apps {
					io.WriteString(h, a.Graph.Fingerprint())
				}
			}
		} else {
			apps, err := workload.BuildAll(params)
			if err != nil {
				return nil, err
			}
			for _, a := range apps {
				io.WriteString(h, a.Graph.Fingerprint())
			}
		}
		hash := hex.EncodeToString(h.Sum(nil))
		p.mu.Lock()
		if len(p.figures) >= maxPlannerMemo {
			p.figures = make(map[string]string)
		}
		p.figures[memoKey] = hash
		p.mu.Unlock()
		return hash, nil
	})
	if err != nil {
		return "", err
	}
	return v.(string), nil
}

// planAnalysis resolves a /v1/analysis request.
func (p *experimentPlanner) planAnalysis(body []byte) (*Job, error) {
	var req AnalysisRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	cores := req.Cores
	if cores == 0 {
		cores = p.base.Machine.Cores
	}
	if cores <= 0 || cores > maxReqCores {
		return nil, fmt.Errorf("server: cores %d out of range [1, %d]", req.Cores, maxReqCores)
	}
	rw, err := p.resolveWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	deadline, err := deadlineOf(req.DeadlineMillis)
	if err != nil {
		return nil, err
	}
	workers := p.expWorkers
	key := fmt.Sprintf("analysis|%s|cores=%d", rw.ck, cores)
	return &Job{
		Key:      key,
		Deadline: deadline,
		Run: func() ([]byte, error) {
			asg, err := experiment.AnalyzeLS(rw.g, rw.arrays, cores, workers)
			if err != nil {
				return nil, err
			}
			out := AnalysisResponse{Key: key, Workload: rw.name, Cores: asg.Cores(), Processes: asg.Len()}
			out.PerCore = make([][]string, len(asg.PerCore))
			for i, l := range asg.PerCore {
				ids := make([]string, len(l))
				for j, id := range l {
					ids[j] = id.String()
				}
				out.PerCore[i] = ids
			}
			return marshalBody(out)
		},
	}, nil
}

// marshalBody renders a response value as newline-terminated JSON. The
// serialization is deterministic (struct fields in declaration order, no
// maps), which is what makes cold, cached, and coalesced responses
// byte-identical by construction.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
