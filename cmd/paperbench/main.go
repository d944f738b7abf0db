// Command paperbench regenerates the tables and figures of the paper's
// evaluation section.
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
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/plot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options collects every parsed flag so the tool body is testable
// without a process boundary.
type options struct {
	fig        string
	table1     bool
	csv        bool
	plotOut    bool
	sample     uint64
	cpuprofile string
	memprofile string

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
	fs.StringVar(&o.metricsJSON, "metrics-json", "", "write the observability metric registry of every simulation cell to this file as JSON ('-' for stdout)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write cycle-stamped timeline traces to this file (.jsonl = compact JSONL, otherwise Chrome trace_event JSON)")
	fs.Uint64Var(&o.traceSample, "trace-sample", 1, "keep one of every N trace spans (with -trace-out; 1 = all)")
	fs.Uint64Var(&o.checkInvariants, "check-invariants", 0, "run the cross-component invariant checker every N cycles (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !o.table1 && o.fig == "" {
		fs.Usage()
		return 2
	}
	if *scale <= 0 {
		fmt.Fprintf(stderr, "paperbench: -scale must be positive, got %v\n", *scale)
		return 2
	}
	if o.sample == 0 {
		fmt.Fprintln(stderr, "paperbench: -sample must be positive, got 0")
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
