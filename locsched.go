// Package locsched is a simulation framework reproducing "Locality-Aware
// Process Scheduling for Embedded MPSoCs" (Kandemir & Chen, DATE 2005).
//
// It provides:
//
//   - a Presburger-style model of array-intensive processes (iteration
//     spaces, affine references) and their inter-process data sharing;
//   - the paper's locality-aware scheduler (LS), its data-mapping variant
//     (LSM), and the RS/RRS baselines, plus SJF and critical-path list
//     scheduling as extension baselines;
//   - a trace-driven MPSoC simulator with private per-core set-associative
//     L1 caches and conflict-miss classification;
//   - the six applications of the paper's Table 1 as parameterized
//     synthetic task graphs, and the harness regenerating every table and
//     figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := locsched.DefaultConfig()
//	apps, _ := locsched.BuildApps(cfg.Workload)
//	res, _ := locsched.Run(apps[0], locsched.LS, cfg)
//	fmt.Printf("%s under LS: %.3f ms\n", apps[0].Name, res.Seconds*1e3)
//
// The cmd/locsched binary regenerates the paper's figures; see
// EXPERIMENTS.md for the measured-vs-paper comparison.
package locsched

import (
	"io"

	"locsched/internal/cache"
	"locsched/internal/experiment"
	"locsched/internal/mpsoc"
	"locsched/internal/presburger"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// Core configuration and result types.
type (
	// Config bundles machine, workload, and policy parameters for a run.
	Config = experiment.Config
	// MachineConfig describes the simulated MPSoC (Table 2).
	MachineConfig = mpsoc.Config
	// Machine is the heterogeneity/topology extension of MachineConfig:
	// per-core speed classes and an interconnect whose hop distance feeds
	// the miss penalty. Its zero value is the paper's homogeneous machine.
	Machine = mpsoc.Machine
	// Topology names an on-chip interconnect shape (bus, mesh, ring).
	Topology = mpsoc.Topology
	// CacheGeometry describes one per-core L1 cache.
	CacheGeometry = cache.Geometry
	// Policy names a scheduling strategy.
	Policy = experiment.Policy
	// RunResult is the outcome of one simulation.
	RunResult = experiment.RunResult
	// Table is a reproduced figure (rows × policies).
	Table = experiment.Table
	// Row is one line of a Table.
	Row = experiment.Row
	// Sweep is a parameter-sensitivity experiment.
	Sweep = experiment.Sweep
	// WorkloadParams tunes the synthetic applications.
	WorkloadParams = workload.Params
	// App is one of the paper's six applications.
	App = workload.App
)

// Workload-construction types, for building custom task sets against the
// same scheduler and simulator.
type (
	// Graph is a process graph (the paper's PG/EPG).
	Graph = taskgraph.Graph
	// Process is one schedulable node of a Graph.
	Process = taskgraph.Process
	// ProcID identifies a process (task, index).
	ProcID = taskgraph.ProcID
	// ProcessSpec describes a process's iteration space and references.
	ProcessSpec = prog.ProcessSpec
	// Array is a program array descriptor.
	Array = prog.Array
	// Ref is an affine array reference.
	Ref = prog.Ref
	// IterSpace is a bounded integer iteration space.
	IterSpace = presburger.BasicSet
	// SharingMatrix holds pairwise shared bytes between processes.
	SharingMatrix = sharing.Matrix
	// Assignment is a static per-core schedule produced by LS.
	Assignment = sched.Assignment
)

// The paper's four scheduling strategies plus two extension baselines.
const (
	// RS is random scheduling (paper baseline 1).
	RS = experiment.RS
	// RRS is preemptive round-robin over a common queue (baseline 2).
	RRS = experiment.RRS
	// ARR is cache-affinity-aware round-robin: RRS plus warm-resume
	// placement and quantum batching (this repo's dynamic-policy
	// extension; see Config.Affinity, Config.QBatch).
	ARR = experiment.ARR
	// LS is the locality-aware scheduler of Figure 3.
	LS = experiment.LS
	// LSM is LS plus the data-mapping phase of Figures 4–5.
	LSM = experiment.LSM
	// SJF is shortest-job-first (extension baseline).
	SJF = experiment.SJF
	// CPL is critical-path list scheduling (extension baseline).
	CPL = experiment.CPL
)

// The supported interconnect topologies of the Machine extension.
const (
	// TopoBus is the paper's shared bus (zero hop distance everywhere).
	TopoBus = mpsoc.TopoBus
	// TopoMesh is a square mesh with the memory controller at a corner.
	TopoMesh = mpsoc.TopoMesh
	// TopoRing is a ring with the memory controller at position 0.
	TopoRing = mpsoc.TopoRing
)

// ParseTopology resolves a case-insensitive topology name ("", "bus",
// "mesh", "ring").
func ParseTopology(s string) (Topology, error) { return mpsoc.ParseTopology(s) }

// ParseSpeedClasses parses a comma-separated speed-class spec into its
// cycle-multiplier list (see Machine.SpeedClasses).
func ParseSpeedClasses(spec string) ([]int64, error) { return mpsoc.ParseSpeedClasses(spec) }

// AccessKind values for building custom references.
const (
	// ReadAccess marks a load reference.
	ReadAccess = prog.Read
	// WriteAccess marks a store reference.
	WriteAccess = prog.Write
)

// DefaultConfig returns the paper's Table 2 machine with default workload
// parameters.
func DefaultConfig() Config { return experiment.DefaultConfig() }

// Policies returns the paper's four strategies in presentation order.
func Policies() []Policy { return experiment.Policies() }

// ExtendedPolicies additionally includes ARR, SJF, and CPL.
func ExtendedPolicies() []Policy { return experiment.ExtendedPolicies() }

// ParsePolicy resolves a case-insensitive policy name.
func ParsePolicy(s string) (Policy, error) { return experiment.ParsePolicy(s) }

// AppNames returns the six application names in Table 1 order.
func AppNames() []string { return workload.Names() }

// DescribeApp returns the paper's one-line description of an application.
func DescribeApp(name string) string { return workload.Describe(name) }

// BuildApp constructs one of the six applications as the given task.
func BuildApp(name string, task int, p WorkloadParams) (*App, error) {
	return workload.Build(name, task, p)
}

// BuildApps constructs all six applications with task IDs 0..5.
func BuildApps(p WorkloadParams) ([]*App, error) { return workload.BuildAll(p) }

// LoadApps reads a JSON task-set description (see internal/workload's
// format documentation) and returns one App per task — custom workloads
// without writing Go.
func LoadApps(r io.Reader) ([]*App, error) { return workload.FromJSON(r) }

// Run simulates one application in isolation under a policy.
func Run(app *App, policy Policy, cfg Config) (*RunResult, error) {
	return experiment.RunApp(app, policy, cfg)
}

// RunConcurrent simulates several applications concurrently (the setting
// of the paper's Figure 7).
func RunConcurrent(apps []*App, policy Policy, cfg Config) (*RunResult, error) {
	return experiment.RunMix(apps, policy, cfg)
}

// RunGraph simulates a custom EPG with its arrays under a policy.
func RunGraph(name string, g *Graph, arrays []*Array, policy Policy, cfg Config) (*RunResult, error) {
	return experiment.RunGraph(name, g, arrays, policy, cfg)
}

// NewGraph returns an empty process graph.
func NewGraph() *Graph { return taskgraph.New() }

// NewArray builds a program array with the given element size (bytes)
// and dimension extents.
func NewArray(name string, elemBytes int64, dims ...int64) (*Array, error) {
	return prog.NewArray(name, elemBytes, dims...)
}

// Seg returns the 1-D iteration space {[v] : lo <= v < hi}.
func Seg(varName string, lo, hi int64) *IterSpace { return prog.Seg(varName, lo, hi) }

// StreamRef builds a reference touching a rank-1 array at stride*i +
// offset over a 1-D iteration space.
func StreamRef(arr *Array, kind prog.AccessKind, iter *IterSpace, stride, offset int64) Ref {
	return prog.StreamRef(arr, kind, iter, stride, offset)
}

// NewProcessSpec describes a process: an iteration space, per-iteration
// compute cycles, and its array references.
func NewProcessSpec(name string, iter *IterSpace, computePerIter int64, refs ...Ref) (*ProcessSpec, error) {
	return prog.NewProcessSpec(name, iter, computePerIter, refs...)
}

// ComputeSharing builds the paper's sharing matrix (Figure 2a) for a
// graph: shared bytes between every pair of processes. It runs the
// blocked construction on one goroutine.
func ComputeSharing(g *Graph) (*SharingMatrix, error) {
	return sharing.ComputeMatrixParallel(g, 1)
}

// ComputeSharingParallel builds the sharing matrix with the blocked,
// parallel construction (tiled pair space, footprint-interval early
// rejection, `workers` goroutines; ≤ 0 means GOMAXPROCS). The result is
// bit-identical to ComputeSharing for every worker count.
func ComputeSharingParallel(g *Graph, workers int) (*SharingMatrix, error) {
	return sharing.ComputeMatrixParallel(g, workers)
}

// LocalitySchedule runs the Figure 3 greedy heuristic, returning the
// static per-core order LS replays.
func LocalitySchedule(g *Graph, m *SharingMatrix, cores int) (*Assignment, error) {
	return sched.LocalitySchedule(g, m, cores)
}

// OptimalSchedule computes the exact maximum-sharing balanced schedule
// for small instances (≤ sched.MaxOptimalProcs processes), used to
// measure the greedy's quality. Returns the schedule and its total
// successive-pair sharing in bytes.
func OptimalSchedule(g *Graph, m *SharingMatrix, cores int) (*Assignment, int64, error) {
	return sched.OptimalSchedule(g, m, cores)
}

// ScheduleSharing returns an assignment's total successive-pair sharing
// in bytes (the static objective of the Figure 3 greedy).
func ScheduleSharing(asg *Assignment, m *SharingMatrix) int64 {
	return sched.SharingOf(asg, m)
}

// Figure6 regenerates the paper's Figure 6 (isolated execution times).
// Pass nil policies for the paper's four.
func Figure6(cfg Config, policies []Policy) (*Table, error) {
	return experiment.Figure6(cfg, policies)
}

// Figure7 regenerates the paper's Figure 7 (concurrent workloads).
func Figure7(cfg Config, policies []Policy) (*Table, error) {
	return experiment.Figure7(cfg, policies)
}

// XLPoint is one (core count, task count) scale of the large-scale
// evaluation ladder.
type XLPoint = experiment.XLPoint

// DefaultXLPoints returns the standard 32/64/128-core scenario ladder
// with proportionally growing generated mixes.
func DefaultXLPoints() []XLPoint { return experiment.DefaultXLPoints() }

// XLLadder returns the doubling 32..maxCores scenario ladder with
// proportionally growing generated mixes (tasks = cores/4) — the
// 256/512/1024-core extension of DefaultXLPoints.
func XLLadder(maxCores int) ([]XLPoint, error) { return experiment.XLLadder(maxCores) }

// Figure7XL scales Figure 7 to large machines: generated multi-program
// mixes on 32–1024-core MPSoCs (see DefaultXLPoints and XLLadder). Pass
// nil points for the default 32/64/128 ladder.
func Figure7XL(cfg Config, points []XLPoint, policies []Policy) (*Table, error) {
	return experiment.Figure7XL(cfg, points, policies)
}

// SweepXL runs the dense (cache size × associativity × miss penalty)
// grid over the full six-application mix.
func SweepXL(cfg Config, sizes []int64, assocs []int, penalties []int64, policies []Policy) (*Sweep, error) {
	return experiment.SweepXL(cfg, sizes, assocs, penalties, policies)
}

// BuildMixApps constructs a generated multi-program mix of n tasks by
// cycling through the Table 1 suite with distinct task IDs.
func BuildMixApps(n int, p WorkloadParams) ([]*App, error) { return workload.BuildMany(n, p) }

// FormatTable renders a figure as an ASCII table (milliseconds).
func FormatTable(t *Table) string { return experiment.FormatTable(t) }

// WriteTableJSON serializes a reproduced figure as JSON for external
// plotting tools.
func WriteTableJSON(w io.Writer, t *Table) error { return experiment.WriteJSON(w, t) }

// FormatMissRates renders a figure's miss rates and conflict misses.
func FormatMissRates(t *Table) string { return experiment.FormatTableMissRates(t) }

// FormatSweep renders a sensitivity sweep with savings annotations.
func FormatSweep(s *Sweep) string { return experiment.FormatSweep(s) }

// FormatTable1 renders the paper's Table 1 (application suite).
func FormatTable1(p WorkloadParams) (string, error) { return experiment.FormatTable1(p) }

// FormatTable2 renders the paper's Table 2 (simulation parameters).
func FormatTable2(cfg Config) string { return experiment.FormatTable2(cfg) }

// SweepCacheSize, SweepAssociativity, SweepCores, SweepQuantum and
// SweepMissPenalty rerun the full six-application mix while varying one
// machine parameter — the paper's "savings are consistent across several
// simulation parameters" claim.
func SweepCacheSize(cfg Config, sizes []int64, policies []Policy) (*Sweep, error) {
	return experiment.SweepCacheSize(cfg, sizes, policies)
}

// SweepAssociativity varies the L1 associativity.
func SweepAssociativity(cfg Config, ways []int, policies []Policy) (*Sweep, error) {
	return experiment.SweepAssociativity(cfg, ways, policies)
}

// SweepCores varies the core count.
func SweepCores(cfg Config, cores []int, policies []Policy) (*Sweep, error) {
	return experiment.SweepCores(cfg, cores, policies)
}

// SweepQuantum varies the RRS time slice.
func SweepQuantum(cfg Config, quanta []int64) (*Sweep, error) {
	return experiment.SweepQuantum(cfg, quanta)
}

// SweepMissPenalty varies the off-chip access latency.
func SweepMissPenalty(cfg Config, penalties []int64, policies []Policy) (*Sweep, error) {
	return experiment.SweepMissPenalty(cfg, penalties, policies)
}

// AblationStaticMode compares the three runtime interpretations of the
// static LS schedule (strict in-order, skip-blocked, steal-when-idle) on
// a concurrent mix of the first mixSize applications (DESIGN.md §7.1).
func AblationStaticMode(cfg Config, mixSize int) (*Sweep, error) {
	return experiment.AblationStaticMode(cfg, mixSize)
}

// AblationReplacement compares cache replacement policies under LS.
func AblationReplacement(cfg Config) (*Sweep, error) {
	return experiment.AblationReplacement(cfg)
}

// AblationIndexing compares conflict-avoidance approaches: LSM's
// software re-layout versus the hardware prime-hash cache indexing of
// the paper's related work.
func AblationIndexing(cfg Config) (*Sweep, error) {
	return experiment.AblationIndexing(cfg)
}

// AblationAffinity sweeps ARR's affinity window × quantum batch grid on
// the full six-application mix against the RRS baseline. Nil slices use
// the default grid.
func AblationAffinity(cfg Config, windows []int, batches []int) (*Sweep, error) {
	return experiment.AblationAffinity(cfg, windows, batches)
}

// TopoGrid parameterizes AblationTopo: speed-class mixes × interconnect
// topologies × per-hop miss penalties.
type TopoGrid = experiment.TopoGrid

// DefaultTopoGrid returns the standard machine-model ablation grid
// (uniform and big.LITTLE mixes, bus and mesh, hop penalties 0 and 16).
func DefaultTopoGrid() TopoGrid { return experiment.DefaultTopoGrid() }

// AblationTopo sweeps the machine-model axis — speed mix × topology ×
// hop penalty — over the full concurrent mix against the homogeneous
// baseline (point 0). Nil policies run RRS, ARR, LS, LSM.
func AblationTopo(cfg Config, grid TopoGrid, policies []Policy) (*Sweep, error) {
	return experiment.AblationTopo(cfg, grid, policies)
}

// GreedyQualityRow compares the Figure 3 greedy against the exact
// maximum-sharing schedule on one application.
type GreedyQualityRow = experiment.GreedyQualityRow

// GreedyQuality measures the greedy's optimality gap on every Table 1
// application small enough for the exact solver.
func GreedyQuality(cfg Config, cores int) ([]GreedyQualityRow, error) {
	return experiment.GreedyQuality(cfg, cores)
}

// FormatGreedyQuality renders the greedy-vs-optimal comparison.
func FormatGreedyQuality(rows []GreedyQualityRow, cores int) string {
	return experiment.FormatGreedyQuality(rows, cores)
}
