// Command locsched regenerates the tables and figures of the paper's
// evaluation (Kandemir & Chen, DATE 2005, Section 4).
//
// Usage:
//
//	locsched [flags] <command>
//
// Commands:
//
//	table1   the application suite (paper Table 1)
//	table2   the default simulation parameters (paper Table 2)
//	fig6     isolated execution times per application (paper Figure 6)
//	fig7     concurrent workloads |T|=1..6 (paper Figure 7)
//	sweep    parameter-sensitivity sweeps (the "consistent savings" claim)
//	all      everything above, in order
//	fig7xl   large-scale concurrent mixes on 32–1024-core machines
//	sweepxl  dense cache-size × associativity × miss-penalty grid
//	affinity ARR window × quantum-batch ablation grid against RRS
//	topo     machine-model ablation: speed mix × topology × hop penalty
//	         against the homogeneous baseline
//
// The XL, affinity, and topo commands go beyond the paper (which stops
// at 8 homogeneous cores and four policies): they are the evaluations
// the compiled-trace engines, the blocked scheduling analysis, and the
// heterogeneous machine model were built to afford, and are deliberately
// not part of `all`.
//
// Two serving subcommands take their own flags after the command word
// (unlike the figure commands above):
//
//	locsched serve [flags]               start the locschedd daemon in-process
//	                                     (same flags as cmd/locschedd)
//	locsched bench -serve URL [flags]    replay the mixed scenario stream
//	                                     against a running daemon and report
//	                                     req/s, cache-hit and coalesce rates
//	locsched bench -restart-warm -store-dir DIR
//	                                     replay the stream, restart an
//	                                     in-process daemon on the same store
//	                                     directory, and assert it warm-starts
//	                                     from disk
//	locsched bench -fleet [-replicas N]  replay the stream against a single
//	                                     in-process instance and then an
//	                                     in-process replica fleet, asserting
//	                                     byte-identical responses, no worse
//	                                     hit rate, and below-N× executions
//
// Flags:
//
//	-scale N       workload scale factor (default 2)
//	-cores N       number of cores (default 8)
//	-quantum N     RRS/ARR time slice in cycles (default 2048)
//	-policy S      comma-separated policy columns for fig6/fig7/fig7xl/sweepxl
//	               (rs,rrs,arr,sjf,cpl,ls,lsm; default: the paper's four)
//	-extended      include the ARR, SJF, and CPL extension policies
//	-affinity N    ARR affinity window; 0 degenerates to RRS (default 256)
//	-qbatch N      ARR quanta per warm resume (default 8)
//	-adecay N      ARR affinity staleness bound in cycles; 0 = never (default 0)
//	-awindows S    affinity-grid windows (default "0,1,4,8,16,64")
//	-abatches S    affinity-grid quantum batches (default "1,4")
//	-missrates     also print miss-rate/conflict tables for fig6, fig7, fig7xl
//	-json          emit fig6/fig7/fig7xl as JSON instead of tables
//	-par N         worker pool size for figure/sweep cells (default GOMAXPROCS)
//	-simpar N      goroutines one cell's simulation uses, its event loop
//	               included (default 0 = GOMAXPROCS; 1 = serial); any value
//	               yields bit-identical results, and the par×simpar product
//	               is clamped to the GOMAXPROCS budget
//	-xlpoints S    fig7xl ladder as cores:tasks pairs (default "32:8,64:16,128:32")
//	-xlmax N       fig7xl doubling ladder 32..N cores (overrides -xlpoints; try 512 or 1024)
//	-xlsizes S     sweepxl cache sizes in KB (default "4,8,16,32")
//	-xlassoc S     sweepxl associativities (default "1,2,4,8")
//	-xlmiss S      sweepxl miss penalties in cycles (default "25,75,150,300")
//	-speeds S      per-core speed-class mix, comma-separated cycle multipliers
//	               cycled across cores ("" = uniform speed 1)
//	-topo S        interconnect topology: bus (default), mesh, or ring
//	-hop N         extra miss cycles per interconnect hop (default 0)
//	-tspeeds S     topo-grid speed mixes, semicolon-separated specs
//	               (default "1;1,4" — specs themselves contain commas)
//	-ttopos S      topo-grid topologies (default "bus,mesh")
//	-thops S       topo-grid hop penalties in cycles (default "0,16")
//
// Every flag is validated at parse time: negative scales, core counts,
// worker pools, affinity settings (beyond the -1 "use the default"
// sentinel), non-positive XL ladder points, and empty lists fail with a
// usage error before any experiment starts, instead of propagating
// silently into configurations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"locsched"
	"locsched/internal/loadgen"
	"locsched/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cliOptions is everything the command handlers need, parsed and
// validated.
type cliOptions struct {
	cfg       locsched.Config
	policies  []locsched.Policy
	missrates bool
	jsonOut   bool
	xlPoints  []locsched.XLPoint
	xlSizes   []int64
	xlAssoc   []int
	xlMiss    []int64
	aWindows  []int
	aBatches  []int
	topoGrid  locsched.TopoGrid
}

// run is the testable entry point: it parses and validates flags, then
// dispatches the command. Exit codes: 0 success, 1 runtime failure,
// 2 usage error.
//
// The serving subcommands are dispatched before figure-flag parsing:
// they follow the conventional `command -flags` shape because their flag
// sets (daemon tuning, load-generator tuning) share nothing with the
// figure harness flags.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return server.Main(args[1:], stdout, stderr)
		case "bench":
			return benchMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("locsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 0, "workload scale factor (0 = default)")
	cores := fs.Int("cores", 0, "number of cores (0 = default 8)")
	quantum := fs.Int64("quantum", 0, "RRS/ARR quantum in cycles (0 = default)")
	extended := fs.Bool("extended", false, "include ARR, SJF, and CPL extension policies")
	policyList := fs.String("policy", "", "comma-separated policy columns (rs,rrs,arr,sjf,cpl,ls,lsm); empty = the paper's four")
	affinity := fs.Int("affinity", -1, "ARR affinity window; 0 degenerates to RRS (-1 = default 256)")
	qbatch := fs.Int("qbatch", -1, "ARR quanta per warm resume; 0 and 1 both mean a single quantum (-1 = default 8)")
	adecay := fs.Int64("adecay", -1, "ARR affinity staleness bound in cycles; 0 = never stale (-1 = default)")
	aWindows := fs.String("awindows", "0,1,4,8,16,64", "affinity-grid windows, comma-separated")
	aBatches := fs.String("abatches", "1,4", "affinity-grid quantum batches, comma-separated")
	missrates := fs.Bool("missrates", false, "also print miss-rate tables")
	jsonOut := fs.Bool("json", false, "emit fig6/fig7/fig7xl as JSON instead of tables")
	par := fs.Int("par", 0, "worker pool size for figure/sweep cells (0 = GOMAXPROCS, 1 = sequential)")
	simpar := fs.Int("simpar", 0, "goroutines per cell's simulation, event loop included (0 = default GOMAXPROCS, 1 = serial; results identical at any value; clamped so par*simpar fits GOMAXPROCS)")
	xlPoints := fs.String("xlpoints", "32:8,64:16,128:32", "fig7xl ladder as comma-separated cores:tasks pairs")
	xlMax := fs.Int("xlmax", 0, "fig7xl doubling ladder 32..N cores (overrides -xlpoints; 0 = use -xlpoints)")
	xlSizes := fs.String("xlsizes", "4,8,16,32", "sweepxl cache sizes in KB, comma-separated")
	xlAssoc := fs.String("xlassoc", "1,2,4,8", "sweepxl associativities, comma-separated")
	xlMiss := fs.String("xlmiss", "25,75,150,300", "sweepxl miss penalties in cycles, comma-separated")
	speeds := fs.String("speeds", "", "per-core speed-class mix, comma-separated cycle multipliers cycled across cores (\"\" = uniform)")
	topo := fs.String("topo", "", "interconnect topology: bus (default), mesh, or ring")
	hop := fs.Int64("hop", 0, "extra miss cycles per interconnect hop")
	tSpeeds := fs.String("tspeeds", "1;1,4", "topo-grid speed mixes, semicolon-separated specs")
	tTopos := fs.String("ttopos", "bus,mesh", "topo-grid topologies, comma-separated")
	tHops := fs.String("thops", "0,16", "topo-grid hop penalties in cycles, comma-separated")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help: usage on request is not an error
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	usageErr := func(err error) int {
		fmt.Fprintln(stderr, "locsched:", err)
		fmt.Fprintln(stderr, "run 'locsched -h' for usage")
		return 2
	}

	// Validate every plain numeric flag before building the config.
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"-scale", int64(*scale)},
		{"-cores", int64(*cores)},
		{"-quantum", *quantum},
		{"-par", int64(*par)},
		{"-simpar", int64(*simpar)},
	} {
		if c.v < 0 {
			return usageErr(fmt.Errorf("%s %d: must be non-negative (0 = default)", c.name, c.v))
		}
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"-affinity", int64(*affinity)},
		{"-qbatch", int64(*qbatch)},
		{"-adecay", *adecay},
	} {
		if c.v < -1 {
			return usageErr(fmt.Errorf("%s %d: must be non-negative (or -1 for the default)", c.name, c.v))
		}
	}
	if *xlMax < 0 {
		return usageErr(fmt.Errorf("-xlmax %d: must be non-negative (0 = use -xlpoints)", *xlMax))
	}
	if *hop < 0 {
		return usageErr(fmt.Errorf("-hop %d: must be non-negative", *hop))
	}
	if _, spErr := locsched.ParseSpeedClasses(*speeds); spErr != nil {
		return usageErr(fmt.Errorf("-speeds: %w", spErr))
	}
	machTopo, topoErr := locsched.ParseTopology(*topo)
	if topoErr != nil {
		return usageErr(fmt.Errorf("-topo: %w", topoErr))
	}

	opts := cliOptions{missrates: *missrates, jsonOut: *jsonOut}
	opts.cfg = locsched.DefaultConfig()
	if *scale > 0 {
		opts.cfg.Workload.Scale = *scale
	}
	if *cores > 0 {
		opts.cfg.Machine.Cores = *cores
	}
	if *quantum > 0 {
		opts.cfg.Quantum = *quantum
	}
	if *par > 0 {
		opts.cfg.Workers = *par
	}
	if *simpar > 0 {
		opts.cfg.SimWorkers = *simpar
	}
	if *affinity >= 0 {
		opts.cfg.Affinity = *affinity
	}
	if *qbatch >= 0 {
		opts.cfg.QBatch = *qbatch
	}
	if *adecay >= 0 {
		opts.cfg.AffinityDecay = *adecay
	}
	opts.cfg.Machine.Machine = locsched.Machine{
		SpeedClasses: *speeds,
		Topology:     machTopo,
		HopPenalty:   *hop,
	}

	if *extended {
		opts.policies = locsched.ExtendedPolicies()
	}
	if *policyList != "" {
		opts.policies = nil
		for _, part := range strings.Split(*policyList, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			p, err := locsched.ParsePolicy(part)
			if err != nil {
				return usageErr(err)
			}
			opts.policies = append(opts.policies, p)
		}
	}

	// Parse the list flags eagerly — all have static defaults, so any
	// error is necessarily the user's value.
	var err error
	if *xlMax > 0 {
		if opts.xlPoints, err = locsched.XLLadder(*xlMax); err != nil {
			return usageErr(fmt.Errorf("-xlmax: %w", err))
		}
	} else if opts.xlPoints, err = parseXLPoints(*xlPoints); err != nil {
		return usageErr(err)
	}
	if opts.xlSizes, err = parseInt64List(*xlSizes, 1); err != nil {
		return usageErr(fmt.Errorf("-xlsizes: %w", err))
	}
	for i := range opts.xlSizes {
		opts.xlSizes[i] *= 1024
	}
	if opts.xlAssoc, err = parseIntList(*xlAssoc, 1); err != nil {
		return usageErr(fmt.Errorf("-xlassoc: %w", err))
	}
	if opts.xlMiss, err = parseInt64List(*xlMiss, 1); err != nil {
		return usageErr(fmt.Errorf("-xlmiss: %w", err))
	}
	if opts.aWindows, err = parseIntList(*aWindows, 0); err != nil {
		return usageErr(fmt.Errorf("-awindows: %w", err))
	}
	if opts.aBatches, err = parseIntList(*aBatches, 0); err != nil {
		return usageErr(fmt.Errorf("-abatches: %w", err))
	}
	// The topo grid's speed specs contain commas, so the spec list is
	// semicolon-separated; each spec and topology name is validated here.
	for _, part := range strings.Split(*tSpeeds, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err = locsched.ParseSpeedClasses(part); err != nil {
			return usageErr(fmt.Errorf("-tspeeds: %w", err))
		}
		opts.topoGrid.Speeds = append(opts.topoGrid.Speeds, part)
	}
	if len(opts.topoGrid.Speeds) == 0 {
		return usageErr(fmt.Errorf("-tspeeds: empty list"))
	}
	for _, part := range strings.Split(*tTopos, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tp, err := locsched.ParseTopology(part)
		if err != nil {
			return usageErr(fmt.Errorf("-ttopos: %w", err))
		}
		opts.topoGrid.Topos = append(opts.topoGrid.Topos, tp)
	}
	if len(opts.topoGrid.Topos) == 0 {
		return usageErr(fmt.Errorf("-ttopos: empty list"))
	}
	if opts.topoGrid.Hops, err = parseInt64List(*tHops, 0); err != nil {
		return usageErr(fmt.Errorf("-thops: %w", err))
	}

	cmd := fs.Arg(0)
	if !knownCommand(cmd) {
		fs.Usage()
		return 2
	}
	if err := dispatch(cmd, opts, stdout); err != nil {
		fmt.Fprintln(stderr, "locsched:", err)
		return 1
	}
	return 0
}

// knownCommand reports whether cmd names a locsched subcommand.
func knownCommand(cmd string) bool {
	switch cmd {
	case "table1", "table2", "fig6", "fig7", "fig7xl", "sweepxl", "affinity", "topo", "sweep", "ablate", "all":
		return true
	}
	return false
}

// dispatch runs one (validated) command against stdout.
func dispatch(cmd string, opts cliOptions, stdout io.Writer) error {
	cfg := opts.cfg
	printTable := func(t *locsched.Table) error {
		if opts.jsonOut {
			return locsched.WriteTableJSON(stdout, t)
		}
		fmt.Fprintln(stdout, locsched.FormatTable(t))
		if opts.missrates {
			fmt.Fprintln(stdout, locsched.FormatMissRates(t))
		}
		return nil
	}
	switch cmd {
	case "table1":
		out, err := locsched.FormatTable1(cfg.Workload)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, out)
	case "table2":
		fmt.Fprintln(stdout, locsched.FormatTable2(cfg))
	case "fig6":
		t, err := locsched.Figure6(cfg, opts.policies)
		if err != nil {
			return err
		}
		return printTable(t)
	case "fig7":
		t, err := locsched.Figure7(cfg, opts.policies)
		if err != nil {
			return err
		}
		return printTable(t)
	case "fig7xl":
		t, err := locsched.Figure7XL(cfg, opts.xlPoints, opts.policies)
		if err != nil {
			return err
		}
		return printTable(t)
	case "sweepxl":
		s, err := locsched.SweepXL(cfg, opts.xlSizes, opts.xlAssoc, opts.xlMiss, opts.policies)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, locsched.FormatSweep(s))
	case "affinity":
		s, err := locsched.AblationAffinity(cfg, opts.aWindows, opts.aBatches)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, locsched.FormatSweep(s))
	case "topo":
		s, err := locsched.AblationTopo(cfg, opts.topoGrid, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, locsched.FormatSweep(s))
	case "sweep":
		return sweeps(cfg, stdout)
	case "ablate":
		return ablations(cfg, stdout)
	case "all":
		for _, n := range []string{"table1", "table2", "fig6", "fig7", "sweep", "ablate"} {
			if err := dispatch(n, opts, stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

func sweeps(cfg locsched.Config, stdout io.Writer) error {
	pols := []locsched.Policy{locsched.RS, locsched.LS, locsched.LSM}
	cs, err := locsched.SweepCacheSize(cfg, []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10}, pols)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(cs))
	as, err := locsched.SweepAssociativity(cfg, []int{1, 2, 4, 8}, pols)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(as))
	co, err := locsched.SweepCores(cfg, []int{2, 4, 8, 16}, pols)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(co))
	qs, err := locsched.SweepQuantum(cfg, []int64{512, 2048, 8192, 32768})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(qs))
	mp, err := locsched.SweepMissPenalty(cfg, []int64{25, 75, 150, 300}, pols)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(mp))
	return nil
}

func ablations(cfg locsched.Config, stdout io.Writer) error {
	sm, err := locsched.AblationStaticMode(cfg, 4)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(sm))
	rp, err := locsched.AblationReplacement(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(rp))
	ix, err := locsched.AblationIndexing(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatSweep(ix))
	rows, err := locsched.GreedyQuality(cfg, cfg.Machine.Cores)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, locsched.FormatGreedyQuality(rows, cfg.Machine.Cores))
	return nil
}

// parseIntList parses a comma-separated list of integers, each at least
// floor.
func parseIntList(s string, floor int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		if v < floor {
			return nil, fmt.Errorf("value %d must be at least %d", v, floor)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseInt64List parses a comma-separated list of 64-bit integers, each
// at least floor.
func parseInt64List(s string, floor int) ([]int64, error) {
	vs, err := parseIntList(s, floor)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out, nil
}

// parseXLPoints parses "cores:tasks,cores:tasks,..." ladders; every
// cores and tasks count must be positive.
func parseXLPoints(s string) ([]locsched.XLPoint, error) {
	var out []locsched.XLPoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		cs, ts, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("-xlpoints: %q is not cores:tasks", part)
		}
		cores, err := strconv.Atoi(cs)
		if err != nil {
			return nil, fmt.Errorf("-xlpoints: bad core count %q", cs)
		}
		tasks, err := strconv.Atoi(ts)
		if err != nil {
			return nil, fmt.Errorf("-xlpoints: bad task count %q", ts)
		}
		if cores <= 0 || tasks <= 0 {
			return nil, fmt.Errorf("-xlpoints: point %q: cores and tasks must be positive", part)
		}
		out = append(out, locsched.XLPoint{Cores: cores, Tasks: tasks})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-xlpoints: empty ladder")
	}
	return out, nil
}

// benchMain is the `locsched bench` subcommand: the load generator that
// replays the mixed scenario stream against a running locschedd, or —
// with -restart-warm — against two successive in-process daemon
// lifetimes over one store directory to prove the warm-start contract,
// or — with -fleet — against a single instance and then an in-process
// replica fleet to prove the fleet differential contract.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("locsched bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serveURL := fs.String("serve", "", "base URL of the target locschedd (required unless -restart-warm)")
	conc := fs.Int("conc", 8, "concurrent client goroutines")
	requests := fs.Int("requests", 200, "total stream requests to send")
	scale := fs.Int("scale", 0, "workload scale the stream requests (0 = daemon default)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
	expectCache := fs.Bool("expect-cache", false, "exit nonzero unless cache hits AND coalesces were observed (CI assertion)")
	restartWarm := fs.Bool("restart-warm", false, "run the stream against an in-process daemon, restart it on the same store dir, and assert the warm start")
	storeDir := fs.String("store-dir", "", "store directory for -restart-warm / -fleet (optional with -fleet)")
	fleetMode := fs.Bool("fleet", false, "run the fleet differential bench: the stream against one in-process instance, then an in-process replica fleet, asserting byte-identical bodies and no worse hit rate")
	replicas := fs.Int("replicas", 3, "fleet size for -fleet")
	warmManifest := fs.String("warm-manifest", "", "cache manifest to replay as a warm set before the stream (with -serve)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *fleetMode {
		if *serveURL != "" || *restartWarm || fs.NArg() != 0 || *conc <= 0 || *requests <= 0 || *scale < 0 || *replicas < 2 {
			fmt.Fprintln(stderr, "locsched bench: usage: locsched bench -fleet [-replicas N] [-store-dir DIR] [-conc N] [-requests N] [-scale N] [-timeout D]")
			return 2
		}
		srvCfg := server.DefaultConfig()
		srvCfg.StoreDir = *storeDir
		srvCfg.Scale = *scale
		rep, err := loadgen.RunFleetBench(srvCfg, loadgen.LoadConfig{
			Concurrency: *conc,
			Requests:    *requests,
			Scale:       *scale,
			Timeout:     *timeout,
		}, *replicas)
		if err != nil {
			fmt.Fprintln(stderr, "locsched bench:", err)
			return 1
		}
		fmt.Fprint(stdout, rep.Format())
		if err := rep.Verify(); err != nil {
			fmt.Fprintln(stderr, "locsched bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "fleet: OK")
		return 0
	}
	if *restartWarm {
		if *storeDir == "" || *serveURL != "" || fs.NArg() != 0 || *conc <= 0 || *requests <= 0 || *scale < 0 {
			fmt.Fprintln(stderr, "locsched bench: usage: locsched bench -restart-warm -store-dir DIR [-conc N] [-requests N] [-scale N] [-timeout D]")
			return 2
		}
		srvCfg := server.DefaultConfig()
		srvCfg.StoreDir = *storeDir
		srvCfg.Scale = *scale
		rep, err := loadgen.RunRestartWarm(srvCfg, loadgen.LoadConfig{
			Concurrency: *conc,
			Requests:    *requests,
			Scale:       *scale,
			Timeout:     *timeout,
		})
		if err != nil {
			fmt.Fprintln(stderr, "locsched bench:", err)
			return 1
		}
		fmt.Fprint(stdout, rep.Format())
		if err := rep.Verify(); err != nil {
			fmt.Fprintln(stderr, "locsched bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "restart-warm: OK")
		return 0
	}
	if *serveURL == "" || fs.NArg() != 0 || *conc <= 0 || *requests <= 0 || *scale < 0 || *storeDir != "" {
		fmt.Fprintln(stderr, "locsched bench: usage: locsched bench -serve URL [-conc N] [-requests N] [-scale N] [-timeout D] [-expect-cache] [-warm-manifest FILE]")
		return 2
	}
	rep, err := loadgen.RunLoad(loadgen.LoadConfig{
		BaseURL:      *serveURL,
		Concurrency:  *conc,
		Requests:     *requests,
		Scale:        *scale,
		Timeout:      *timeout,
		WarmManifest: *warmManifest,
	})
	if err != nil {
		fmt.Fprintln(stderr, "locsched bench:", err)
		return 1
	}
	fmt.Fprint(stdout, rep.Format())
	if rep.Errors > 0 {
		fmt.Fprintf(stderr, "locsched bench: %d requests failed\n", rep.Errors)
		return 1
	}
	hits, coalesced := rep.Server.Counter("locsched_cache_memory_hits_total"), rep.Server.Counter("locsched_server_coalesced_total")
	if *expectCache && (hits == 0 || coalesced == 0) {
		fmt.Fprintf(stderr, "locsched bench: expected nonzero cache hits and coalesces, got hits=%d coalesced=%d\n", hits, coalesced)
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet, stderr io.Writer) {
	fmt.Fprintf(stderr, `usage: locsched [flags] <command>
       locsched serve [flags]
       locsched bench -serve URL [flags]

commands: table1 table2 fig6 fig7 sweep ablate all fig7xl sweepxl affinity topo

flags:
`)
	fs.PrintDefaults()
}
