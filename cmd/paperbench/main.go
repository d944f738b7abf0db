// Command paperbench regenerates the tables and figures of the paper's
// evaluation section, and records the simulator's own performance.
//
// Usage:
//
//	paperbench -fig all            # every figure at the default scale
//	paperbench -fig 6 -scale 0.5   # one figure, reduced scale
//	paperbench -table1             # the simulated-system configuration
//	paperbench -fig 6 -csv         # machine-readable output
//
// Performance tooling:
//
//	paperbench -fig 6 -cpuprofile cpu.pprof   # profile a sweep
//	paperbench -fig 6 -memprofile mem.pprof   # heap profile at exit
//	paperbench -bench-json BENCH_baseline.json -scale 0.25
//	                                # measure the perf-trajectory suite
//	paperbench -bench-compare BENCH_baseline.json -scale 0.1 -workloads bfs,sssp
//	                                # fail if simulated cycles drift >2%
//
// Memory-management pipeline overrides (see DESIGN.md, "Memory-management
// pipeline"):
//
//	paperbench -fig 6 -planner thrash-guard
//	paperbench -fig 6 -replacement lru -prefetcher none
//
// Observability (see DESIGN.md, "Observability"):
//
//	paperbench -fig 6 -metrics-json metrics.json   # one entry per cell
//	paperbench -fig 6 -trace-out trace.json        # Chrome trace_event
//	paperbench -fig 6 -check-invariants 10000      # periodic checker
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/experiments"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/plot"
	"uvmsim/internal/resultio"
	"uvmsim/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options collects every parsed flag so the tool body is testable
// without a process boundary.
type options struct {
	fig          string
	table1       bool
	csv          bool
	plotOut      bool
	sample       uint64
	cpuprofile   string
	memprofile   string
	benchJSON    string
	benchCompare string

	benchClusterJSON    string
	benchClusterCompare string

	benchScale1JSON    string
	benchScale1Compare string

	benchCXLJSON    string
	benchCXLCompare string

	serveLoad    string
	serveClients int

	tournament         bool
	tournamentOut      string
	tournamentOversub  uint64
	tournamentPlanners string

	metricsJSON     string
	traceOut        string
	traceSample     uint64
	checkInvariants uint64

	opt uvmsim.ExperimentOptions
}

// run parses args and executes the selected modes, returning the process
// exit code. All failures — flag errors, validation errors, unwritable
// output paths, invariant violations — surface as a one-line message on
// stderr and a non-zero code, never a panic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o              options
		scale          = fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper size)")
		workloads      = fs.String("workloads", "", "comma-separated workload subset (default: all)")
		workers        = fs.Int("workers", 0, "concurrent sweep cells per figure (0 = one per core)")
		clusterWorkers = fs.Int("cluster-workers", 0, "worker threads draining the per-GPU engines of each multi-GPU cluster run (0 or 1 = sequential; results are identical either way)")
		planner        = fs.String("planner", "", "migration planner: "+strings.Join(mm.PlannerNames(), ", ")+" (default: threshold)")
		replacement    = fs.String("replacement", "", "replacement policy for eviction: lru, lfu (default: paper pairing)")
		prefetcher     = fs.String("prefetcher", "", "prefetcher: tree, none, sequential (default: tree)")
	)
	fs.StringVar(&o.fig, "fig", "", "figure to regenerate: 1-8, or 'all'")
	fs.BoolVar(&o.table1, "table1", false, "print Table I (simulated system configuration)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&o.plotOut, "plot", false, "render tables as terminal bar charts")
	fs.Uint64Var(&o.sample, "sample", 256, "Fig. 3 sampling density (1 = every access)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&o.benchJSON, "bench-json", "", "run the benchmark suite and write a versioned JSON report to this file ('-' for stdout)")
	fs.StringVar(&o.benchCompare, "bench-compare", "", "run the Fig. 6/7 sweep once and fail if its simulated cycles drift >2% from the baseline suite in this file")
	fs.StringVar(&o.benchClusterJSON, "bench-cluster-json", "", "run the multi-GPU cluster benchmark (sequential vs parallel) and write a versioned JSON report to this file ('-' for stdout)")
	fs.StringVar(&o.benchClusterCompare, "bench-cluster-compare", "", "re-run the cluster benchmark at the baseline's own scale and fail if its makespan drifts >2% from this file")
	fs.StringVar(&o.benchScale1JSON, "bench-scale1-json", "", "time the Fig. 6/7 sweep and write its wall clock and simulated-cycle total to this file ('-' for stdout)")
	fs.StringVar(&o.benchScale1Compare, "bench-scale1-compare", "", "re-run the Fig. 6/7 sweep at this baseline's own scale and workloads and fail if its simulated cycles drift >2%")
	fs.StringVar(&o.benchCXLJSON, "bench-cxl-json", "", "run the CXL co-location benchmark (every pool policy over one tenant mix) and write a versioned JSON report to this file ('-' for stdout)")
	fs.StringVar(&o.benchCXLCompare, "bench-cxl-compare", "", "re-run the co-location benchmark and fail unless every scenario is byte-identical to this file")
	fs.StringVar(&o.serveLoad, "serve-load", "", "run the simd sweep-service load test (cold vs fully-cached warm phase) and write a versioned JSON report to this file ('-' for stdout)")
	fs.IntVar(&o.serveClients, "serve-clients", 8, "with -serve-load, concurrent clients in the warm phase")
	fs.BoolVar(&o.tournament, "tournament", false, "run the pipeline tournament: rank every migration planner by total simulated cycles over the workload matrix")
	fs.StringVar(&o.tournamentOut, "tournament-out", "", "with -tournament, also write the leaderboard as a versioned JSON suite to this file ('-' for stdout)")
	fs.Uint64Var(&o.tournamentOversub, "tournament-oversub", 125, "with -tournament, working set as % of device memory per cell")
	fs.StringVar(&o.tournamentPlanners, "tournament-planners", "", "with -tournament, comma-separated planner subset (default: "+strings.Join(experiments.DefaultTournamentPlanners(), ",")+")")
	fs.StringVar(&o.metricsJSON, "metrics-json", "", "write the observability metric registry of every simulation cell to this file as JSON ('-' for stdout)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write cycle-stamped timeline traces to this file (.jsonl = compact JSONL, otherwise Chrome trace_event JSON)")
	fs.Uint64Var(&o.traceSample, "trace-sample", 1, "keep one of every N trace spans (with -trace-out; 1 = all)")
	fs.Uint64Var(&o.checkInvariants, "check-invariants", 0, "run the cross-component invariant checker every N cycles (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !o.table1 && o.fig == "" && o.benchJSON == "" && o.benchCompare == "" &&
		o.benchClusterJSON == "" && o.benchClusterCompare == "" &&
		o.benchScale1JSON == "" && o.benchScale1Compare == "" &&
		o.benchCXLJSON == "" && o.benchCXLCompare == "" && o.serveLoad == "" && !o.tournament {
		fs.Usage()
		return 2
	}
	if *scale <= 0 {
		fmt.Fprintf(stderr, "paperbench: -scale must be positive, got %v\n", *scale)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "paperbench: -workers must be non-negative, got %d\n", *workers)
		return 2
	}
	if *clusterWorkers < 0 {
		fmt.Fprintf(stderr, "paperbench: -cluster-workers must be non-negative, got %d\n", *clusterWorkers)
		return 2
	}
	o.opt = uvmsim.ExperimentOptions{Scale: *scale, Workers: *workers}
	if *workloads != "" {
		o.opt.Workloads = cliutil.SplitList(*workloads)
	}
	if *planner != "" || *replacement != "" || *prefetcher != "" || *clusterWorkers > 0 {
		base := uvmsim.DefaultConfig()
		base.ClusterWorkers = *clusterWorkers
		name, err := cliutil.ParseComponentName("planner", *planner, mm.PlannerNames())
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 2
		}
		base.MMPipeline.Planner = name
		// The replacement override rides on the evictor seam rather than
		// Config.Replacement: sweeps apply WithPolicy per cell, which
		// re-pairs Replacement with the migration policy, while a named
		// evictor survives the pairing.
		if rp, ok, err := cliutil.ParseReplacement(*replacement); err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 2
		} else if ok {
			base.MMPipeline.Evictor = strings.ToLower(rp.String())
		}
		if *prefetcher != "" {
			pf, err := cliutil.ParsePrefetcher(*prefetcher)
			if err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
				return 2
			}
			base.Prefetcher = pf
		}
		o.opt.Base = base
	}
	if err := execute(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}
	return 0
}

// execute runs the selected modes with profiling hooks wrapped around
// them; it returns instead of exiting so deferred profile writers run.
func execute(o options, stdout, stderr io.Writer) (err error) {
	// An invariant violation fails fast as a panic carrying a
	// cycle-stamped diagnostic; surface it as an ordinary error.
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*obs.Violation); ok {
				err = v
				return
			}
			panic(r)
		}
	}()

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
			}
		}()
	}

	// Open observability outputs before any sweep runs, so an unwritable
	// path fails in milliseconds rather than after minutes of simulation.
	outs := make(map[string]io.WriteCloser)
	defer func() {
		//simlint:allow maporder -- closing output files; order cannot reach results
		for _, f := range outs {
			f.Close()
		}
	}()
	for _, path := range []string{o.metricsJSON, o.traceOut} {
		if path == "" || path == "-" || outs[path] != nil {
			continue
		}
		f, ferr := os.Create(path)
		if ferr != nil {
			return ferr
		}
		outs[path] = f
	}

	suite := obs.NewSuite(obs.Options{
		Metrics:     o.metricsJSON != "",
		Trace:       o.traceOut != "",
		TraceSample: o.traceSample,
		CheckEvery:  o.checkInvariants,
	})
	if suite.Options().Enabled() {
		o.opt.Observe = suite.NewRun
	}

	if o.benchJSON != "" {
		if err := runBenchSuite(o.benchJSON, o.opt, stdout, stderr); err != nil {
			return err
		}
	}
	if o.benchCompare != "" {
		if err := runBenchCompare(o.benchCompare, o.opt, stdout, stderr); err != nil {
			return err
		}
	}
	if o.benchClusterJSON != "" {
		if err := runBenchClusterSuite(o.benchClusterJSON, o.opt, stdout, stderr); err != nil {
			return err
		}
	}
	if o.benchClusterCompare != "" {
		if err := runBenchClusterCompare(o.benchClusterCompare, o.opt, stdout, stderr); err != nil {
			return err
		}
	}
	if o.benchScale1JSON != "" {
		if err := runBenchScale1Suite(o.benchScale1JSON, o.opt, stdout, stderr); err != nil {
			return err
		}
	}
	if o.benchScale1Compare != "" {
		if err := runBenchScale1Compare(o.benchScale1Compare, o.opt, stdout, stderr); err != nil {
			return err
		}
	}
	if o.benchCXLJSON != "" {
		if err := runBenchCXLSuite(o.benchCXLJSON, stdout, stderr); err != nil {
			return err
		}
	}
	if o.benchCXLCompare != "" {
		if err := runBenchCXLCompare(o.benchCXLCompare, stdout, stderr); err != nil {
			return err
		}
	}
	if o.serveLoad != "" {
		if err := runServeLoad(o.serveLoad, o.opt, o.serveClients, stdout, stderr); err != nil {
			return err
		}
	}
	if o.tournament {
		if err := runTournament(o, stdout, stderr); err != nil {
			return err
		}
	}
	if o.table1 {
		fmt.Fprint(stdout, uvmsim.Table1(uvmsim.DefaultConfig()))
		fmt.Fprintln(stdout)
	}
	if o.fig != "" {
		if err := runFigures(o.fig, o.csv, o.plotOut, o.sample, o.opt, stdout); err != nil {
			return err
		}
	}

	if o.metricsJSON != "" {
		w := io.Writer(stdout)
		if o.metricsJSON != "-" {
			w = outs[o.metricsJSON]
		}
		if err := suite.WriteMetricsJSON(w); err != nil {
			return err
		}
		if o.metricsJSON != "-" {
			fmt.Fprintf(stderr, "wrote %s\n", o.metricsJSON)
		}
	}
	if o.traceOut != "" {
		var err error
		if strings.HasSuffix(o.traceOut, ".jsonl") {
			err = suite.WriteTraceJSONL(outs[o.traceOut])
		} else {
			err = suite.WriteChromeTrace(outs[o.traceOut])
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", o.traceOut)
	}
	return nil
}

func runFigures(fig string, csv, plotOut bool, sample uint64, opt uvmsim.ExperimentOptions, stdout io.Writer) error {
	emit := func(t *uvmsim.Table) {
		switch {
		case csv:
			fmt.Fprint(stdout, t.CSV())
		case plotOut:
			rows := make([]plot.NamedRow, len(t.Rows))
			for i, r := range t.Rows {
				rows[i] = plot.NamedRow{Label: r.Label, Values: r.Values}
			}
			fmt.Fprint(stdout, plot.GroupedBars(t.Title+"\n"+t.Metric, t.Columns, rows, 50))
		default:
			fmt.Fprint(stdout, t.Format())
		}
		fmt.Fprintln(stdout)
	}

	figs := strings.Split(fig, ",")
	if fig == "all" {
		figs = []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	}
	for _, f := range figs {
		switch f {
		case "1":
			emit(uvmsim.Fig1(opt))
		case "2":
			for _, w := range []string{"fdtd", "sssp"} {
				fmt.Fprintln(stdout, uvmsim.Fig2(w, opt))
			}
		case "3":
			series := uvmsim.Fig3("fdtd", opt, []int{2, 4}, sample)
			for _, it := range []int{2, 4} {
				fmt.Fprintf(stdout, "Figure 3 (fdtd, iteration %d):\n%s\n", it, series[it])
			}
			series = uvmsim.Fig3("sssp", opt, []int{3, 5}, sample)
			for _, it := range []int{3, 5} {
				fmt.Fprintf(stdout, "Figure 3 (sssp, iteration %d):\n%s\n", it, series[it])
			}
		case "4":
			emit(uvmsim.Fig4(opt))
		case "5":
			emit(uvmsim.Fig5(opt))
		case "6":
			emit(uvmsim.Fig6(opt))
		case "7":
			emit(uvmsim.Fig7(opt))
		case "6+7", "67":
			rt, th := uvmsim.Fig6And7(opt)
			emit(rt)
			emit(th)
		case "8":
			emit(uvmsim.Fig8(opt))
		case "multigpu":
			// The paper's §VIII future-work extension.
			emit(uvmsim.MultiGPU("ra", opt, 125))
			emit(uvmsim.MultiGPU("sssp", opt, 125))
		case "hints":
			// Extension: profiled cudaMemAdvise-style hints vs Adaptive.
			hintOpt := opt
			if len(hintOpt.Workloads) == 0 {
				hintOpt.Workloads = uvmsim.IrregularWorkloads()
			}
			emit(uvmsim.OracleHints(hintOpt, 125))
		default:
			return fmt.Errorf("unknown figure %q", f)
		}
	}
	return nil
}

// runTournament ranks every requested migration planner by total
// simulated cycles over the workload matrix, printing the leaderboard
// (table, CSV or bar chart) and optionally archiving it as a versioned
// JSON suite.
func runTournament(o options, stdout, stderr io.Writer) error {
	topt := uvmsim.TournamentOptions{
		Options:        o.opt,
		OversubPercent: o.tournamentOversub,
	}
	if o.tournamentPlanners != "" {
		for _, p := range cliutil.SplitList(o.tournamentPlanners) {
			name, err := cliutil.ParseComponentName("planner", p, mm.PlannerNames())
			if err != nil {
				return err
			}
			topt.Planners = append(topt.Planners, name)
		}
	}
	res := uvmsim.Tournament(topt)
	t := res.Table()
	switch {
	case o.csv:
		fmt.Fprint(stdout, res.CSV())
	case o.plotOut:
		rows := make([]plot.NamedRow, len(t.Rows))
		for i, r := range t.Rows {
			rows[i] = plot.NamedRow{Label: r.Label, Values: r.Values}
		}
		fmt.Fprint(stdout, plot.GroupedBars(t.Title+"\n"+t.Metric, t.Columns, rows, 50))
	default:
		fmt.Fprint(stdout, t.Format())
	}
	fmt.Fprintln(stdout)
	if o.tournamentOut == "" {
		return nil
	}
	suite := res.Suite()
	suite.GoVersion = runtime.Version()
	if o.tournamentOut == "-" {
		return resultio.WriteTournamentSuite(stdout, suite)
	}
	f, err := os.Create(o.tournamentOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := resultio.WriteTournamentSuite(f, suite); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", o.tournamentOut)
	return nil
}

// runBenchSuite measures the perf-trajectory suite — the Fig. 1 and
// Fig. 6/7 sweeps plus the event-engine microbenchmarks that guard the
// hot path — and writes a versioned resultio.BenchSuite.
func runBenchSuite(path string, opt uvmsim.ExperimentOptions, stdout io.Writer, stderr io.Writer) error {
	// fig67Cycles records the deterministic simulated-cycle total of the
	// Fig. 6/7 sweep (every iteration produces the same value); it is
	// archived alongside the wall-clock measurement so bench-compare has
	// a machine-independent drift metric.
	var fig67Cycles uint64
	benchmarks := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Fig1", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if uvmsim.Fig1(opt) == nil {
					b.Fatal("empty figure")
				}
			}
		}},
		{"Fig6And7", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt, th, cycles := uvmsim.Fig6And7Cycles(opt)
				if rt == nil || th == nil {
					b.Fatal("empty figure")
				}
				fig67Cycles = cycles
			}
		}},
		{"EngineSchedule", func(b *testing.B) {
			eng := sim.NewEngine()
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.After(sim.Cycle(i%512), fn)
				if eng.Pending() > 8192 {
					eng.Run()
				}
			}
			eng.Run()
		}},
		{"EngineRun", func(b *testing.B) {
			eng := sim.NewEngine()
			var fired int
			fn := func() { fired++ }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.After(sim.Cycle(i%64), fn)
				if eng.Pending() > 1024 {
					eng.RunUntil(eng.Now() + 32)
				}
			}
			eng.Run()
			if fired != b.N {
				b.Fatalf("fired %d of %d", fired, b.N)
			}
		}},
	}

	suite := &resultio.BenchSuite{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      opt.Scale,
		Workloads:  opt.Workloads,
	}
	for _, bm := range benchmarks {
		fmt.Fprintf(stderr, "bench %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			return fmt.Errorf("benchmark %s did not run (did it fail?)", bm.name)
		}
		res := resultio.BenchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if bm.name == "Fig6And7" {
			res.SimCycles = fig67Cycles
		}
		suite.Results = append(suite.Results, res)
	}

	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return resultio.WriteBenchSuite(out, suite)
}

// benchDriftLimit is the allowed relative drift of the simulated-cycle
// total against the committed baseline.
const benchDriftLimit = 0.02

// runBenchCompare is the bench-smoke gate: it reruns the Fig. 6/7 sweep
// once (untimed — the metric is simulated cycles, not wall clock) and
// fails when the total drifts more than benchDriftLimit from the
// archived baseline. An intentional behaviour change regenerates the
// baseline with -bench-json at the same -scale and -workloads.
func runBenchCompare(path string, opt uvmsim.ExperimentOptions, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := resultio.ReadBenchSuite(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if base.Scale != opt.Scale {
		return fmt.Errorf("baseline %s was measured at scale %v, not %v; pass -scale %v or regenerate",
			path, base.Scale, opt.Scale, base.Scale)
	}
	if bw, ow := strings.Join(base.Workloads, ","), strings.Join(opt.Workloads, ","); bw != ow {
		return fmt.Errorf("baseline %s was measured over workloads %q, not %q; pass -workloads %q or regenerate",
			path, bw, ow, bw)
	}
	var want *resultio.BenchResult
	for i := range base.Results {
		if base.Results[i].Name == "Fig6And7" && base.Results[i].SimCycles > 0 {
			want = &base.Results[i]
		}
	}
	if want == nil {
		return fmt.Errorf("baseline %s carries no Fig6And7 simulated-cycle total; regenerate it with -bench-json", path)
	}
	fmt.Fprintf(stderr, "bench-compare: running the Fig. 6/7 sweep at scale %v...\n", opt.Scale)
	_, _, got := uvmsim.Fig6And7Cycles(opt)
	drift := float64(got)/float64(want.SimCycles) - 1
	fmt.Fprintf(stdout, "bench-compare: Fig6And7 simulated cycles %d vs baseline %d (drift %+.3f%%)\n",
		got, want.SimCycles, drift*100)
	if math.Abs(drift) > benchDriftLimit {
		return fmt.Errorf("simulated cycles drifted %+.2f%% from %s (limit ±%.0f%%)",
			drift*100, path, benchDriftLimit*100)
	}
	fmt.Fprintf(stdout, "bench-compare: PASS (within ±%.0f%%)\n", benchDriftLimit*100)
	return nil
}

// Cluster-bench parameters: the §VIII extension's irregular centerpiece
// on a 4-GPU cluster at the paper's oversubscription point.
const (
	benchClusterWorkload = "ra"
	benchClusterGPUs     = 4
	benchClusterOversub  = 125
)

// benchClusterSetup builds the cluster benchmark's workload and
// configuration with the given cluster worker count (0 = sequential).
func benchClusterSetup(opt uvmsim.ExperimentOptions, workers int) (*uvmsim.Workload, uvmsim.Config) {
	base := opt.Base
	if base.NumSMs == 0 {
		base = uvmsim.DefaultConfig()
	}
	w := uvmsim.BuildWorkload(benchClusterWorkload, opt.Scale)
	cfg := base.WithPolicy(uvmsim.PolicyAdaptive).
		WithOversubscription(w.WorkingSet()/benchClusterGPUs, benchClusterOversub)
	cfg.ClusterWorkers = workers
	return w, cfg
}

// runBenchClusterSuite measures one 4-GPU cluster run sequentially and
// in parallel mode (GOMAXPROCS workers), checks
// the two makespans agree (they are byte-identical by design), and
// writes a versioned report carrying the wall-clock numbers and the
// simulated-cycle checksum bench-cluster-compare gates on.
func runBenchClusterSuite(path string, opt uvmsim.ExperimentOptions, stdout, stderr io.Writer) error {
	w, seqCfg := benchClusterSetup(opt, 0)
	_, parCfg := benchClusterSetup(opt, runtime.GOMAXPROCS(0))
	var seqCycles, parCycles uint64
	benchmarks := []struct {
		name   string
		cfg    uvmsim.Config
		cycles *uint64
	}{
		{"ClusterSequential", seqCfg, &seqCycles},
		{"ClusterParallel", parCfg, &parCycles},
	}
	suite := &resultio.BenchSuite{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      opt.Scale,
		Workloads:  []string{benchClusterWorkload},
	}
	for _, bm := range benchmarks {
		fmt.Fprintf(stderr, "bench %s (%d GPUs)...\n", bm.name, benchClusterGPUs)
		cfg, cycles := bm.cfg, bm.cycles
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				*cycles = uvmsim.NewCluster(w, cfg, benchClusterGPUs).Run().Cycles
			}
		})
		if r.N == 0 {
			return fmt.Errorf("benchmark %s did not run (did it fail?)", bm.name)
		}
		suite.Results = append(suite.Results, resultio.BenchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			SimCycles:   *cycles,
		})
	}
	if seqCycles != parCycles {
		return fmt.Errorf("cluster makespan diverged: sequential %d vs parallel %d (parallel mode must be byte-identical)",
			seqCycles, parCycles)
	}
	fmt.Fprintf(stdout, "bench-cluster: makespan %d cycles, parallel speedup %.2fx at GOMAXPROCS=%d\n",
		seqCycles, suite.Results[0].NsPerOp/suite.Results[1].NsPerOp, runtime.GOMAXPROCS(0))

	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return resultio.WriteBenchSuite(out, suite)
}

// runBenchClusterCompare extends the bench-smoke gate to cluster runs:
// it re-runs the cluster once in parallel mode at the baseline's own scale
// (the cluster checksum is self-contained, so it needs no -scale
// agreement with the single-GPU baseline) and fails when the makespan
// drifts more than benchDriftLimit. The recorded checksum came from the
// sequential run, so running the parallel mode here also re-proves the
// sequential/parallel equivalence on every gate pass.
func runBenchClusterCompare(path string, opt uvmsim.ExperimentOptions, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := resultio.ReadBenchSuite(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	var want *resultio.BenchResult
	for i := range base.Results {
		if strings.HasPrefix(base.Results[i].Name, "Cluster") && base.Results[i].SimCycles > 0 {
			want = &base.Results[i]
			break
		}
	}
	if want == nil {
		return fmt.Errorf("baseline %s carries no cluster simulated-cycle total; regenerate it with -bench-cluster-json", path)
	}
	clOpt := opt
	clOpt.Scale = base.Scale
	w, cfg := benchClusterSetup(clOpt, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stderr, "bench-cluster-compare: running a %d-GPU %s cluster at scale %v...\n",
		benchClusterGPUs, benchClusterWorkload, base.Scale)
	got := uvmsim.NewCluster(w, cfg, benchClusterGPUs).Run().Cycles
	drift := float64(got)/float64(want.SimCycles) - 1
	fmt.Fprintf(stdout, "bench-cluster-compare: makespan %d vs baseline %d (drift %+.3f%%)\n",
		got, want.SimCycles, drift*100)
	if math.Abs(drift) > benchDriftLimit {
		return fmt.Errorf("cluster makespan drifted %+.2f%% from %s (limit ±%.0f%%)",
			drift*100, path, benchDriftLimit*100)
	}
	fmt.Fprintf(stdout, "bench-cluster-compare: PASS (within ±%.0f%%)\n", benchDriftLimit*100)
	return nil
}

// benchScale1Name names the scale-1 record's single result.
const benchScale1Name = "Fig6And7Sweep"

// benchScale1Run times one Fig. 6/7 sweep and returns the benchmark
// result carrying its deterministic simulated-cycle total.
func benchScale1Run(opt uvmsim.ExperimentOptions, stderr io.Writer) (resultio.BenchResult, error) {
	fmt.Fprintf(stderr, "bench %s (scale %v)...\n", benchScale1Name, opt.Scale)
	var cycles uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt, th, got := uvmsim.Fig6And7Cycles(opt)
			if rt == nil || th == nil {
				b.Fatal("empty figure")
			}
			cycles = got
		}
	})
	if r.N == 0 {
		return resultio.BenchResult{}, fmt.Errorf("benchmark %s did not run (did it fail?)", benchScale1Name)
	}
	return resultio.BenchResult{
		Name:        benchScale1Name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		SimCycles:   cycles,
	}, nil
}

// runBenchScale1Suite times the Fig. 6/7 sweep and archives its wall
// clock and simulated-cycle total as a versioned report. Run at -scale
// 1.0 this is the committed BENCH_scale1.json trajectory record.
func runBenchScale1Suite(path string, opt uvmsim.ExperimentOptions, stdout, stderr io.Writer) error {
	res, err := benchScale1Run(opt, stderr)
	if err != nil {
		return err
	}
	suite := &resultio.BenchSuite{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      opt.Scale,
		Workloads:  opt.Workloads,
		Results:    []resultio.BenchResult{res},
	}
	fmt.Fprintf(stdout, "bench-scale1: Fig6And7 %d simulated cycles in %.1fs\n", res.SimCycles, res.NsPerOp/1e9)

	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return resultio.WriteBenchSuite(out, suite)
}

// runBenchScale1Compare is the CI drift gate over the scale-1 record:
// it re-runs the sweep at the baseline's own scale and workloads and
// fails when the simulated-cycle total drifts more than benchDriftLimit
// from the baseline.
func runBenchScale1Compare(path string, opt uvmsim.ExperimentOptions, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := resultio.ReadBenchSuite(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	var want *resultio.BenchResult
	for i := range base.Results {
		if base.Results[i].Name == benchScale1Name && base.Results[i].SimCycles > 0 {
			want = &base.Results[i]
		}
	}
	if want == nil {
		return fmt.Errorf("baseline %s carries no %s simulated-cycle total; regenerate it with -bench-scale1-json", path, benchScale1Name)
	}
	mo := opt
	mo.Scale = base.Scale
	mo.Workloads = base.Workloads
	got, err := benchScale1Run(mo, stderr)
	if err != nil {
		return err
	}
	drift := float64(got.SimCycles)/float64(want.SimCycles) - 1
	fmt.Fprintf(stdout, "bench-scale1-compare: %d simulated cycles vs baseline %d (drift %+.3f%%) in %.1fs\n",
		got.SimCycles, want.SimCycles, drift*100, got.NsPerOp/1e9)
	if math.Abs(drift) > benchDriftLimit {
		return fmt.Errorf("simulated cycles drifted %+.2f%% from %s (limit ±%.0f%%)",
			drift*100, path, benchDriftLimit*100)
	}
	fmt.Fprintf(stdout, "bench-scale1-compare: PASS (within ±%.0f%%)\n", benchDriftLimit*100)
	return nil
}
