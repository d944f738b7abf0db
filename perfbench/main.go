// Command perfbench is the repository's benchmark: it measures the
// simulator from outside, through the public uvmsim API and the simd
// HTTP/JSON API, on four workloads (see README.md).
//
//	perfbench --workload fig67 --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints every end-to-end metric; a traced
// run (--trace 1) prints every per-layer metric. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The command exits 1 when an output check fails
// and 2 when it cannot measure at all.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"uvmsim"
)

// Set-up runs at least minSetupReps times and for at least
// minSetupSeconds in all, but at most maxSetupReps times; setup_s is the
// median. Cheap set-ups (a server start, one allocation-only build)
// repeat more often, so their median is read off more samples.
const (
	minSetupReps    = 5
	maxSetupReps    = 25
	minSetupSeconds = 1.0
)

// traceDir receives the traced run's spans and CPU profile.
const traceDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig67, thrash, serve or cluster")
	seed := fs.Uint64("seed", 1, "seed of the serve request stream (the other workloads are fixed builds)")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	var rep *report
	if *trace == 1 {
		rep, err = measureTraced(w, fmt.Sprintf("%s-seed%d", *name, *seed))
	} else {
		rep, err = measure(w, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if err := rep.print(*name, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if len(rep.errs) > 0 {
		return 1
	}
	return 0
}

// newWorkload returns the named workload. fig67, thrash and cluster
// run the paper's fixed, deterministic workload builds and ignore the
// seed; serve generates its request stream from it.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "fig67":
		return &matrixWorkload{benches: uvmsim.Workloads(), scale: 1.0, pct: 125, figure: true}, nil
	case "thrash":
		return &matrixWorkload{benches: []string{"ra"}, scale: 16, pct: 150}, nil
	case "cluster":
		return &clusterWorkload{benches: []string{"bfs", "sssp"}, scale: 1.5, gpus: 4, pct: 125, workers: 2}, nil
	case "serve":
		return &serveWorkload{seed: seed, scale: 0.05, requests: 1500, clients: 2, workers: 2, first: map[string][]byte{}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig67, thrash, serve or cluster)", name)
}

// report is the outcome of one invocation.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	// notes are extra human-readable lines: digests, sample counts.
	notes []string
}

// timeSetup repeats set-up and returns the median duration.
func timeSetup(w workload, tr *tracer) (float64, error) {
	var ds []float64
	var total float64
	for len(ds) < minSetupReps || (total < minSetupSeconds && len(ds) < maxSetupReps) {
		id := tr.begin("setup", 0)
		t0 := time.Now()
		err := w.setup(tr)
		d := time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, d)
		total += d
		// Drop the previous repetition's inputs so peak_rss_mb measures
		// one set of inputs, not one per repetition.
		runtime.GC()
	}
	return median(ds)
}

// measure is the untraced run: set-up, then whole iterations until the
// next one would overrun the budget (at least one), then the untimed
// output checks.
func measure(w workload, seconds float64) (*report, error) {
	setupS, err := timeSetup(w, nil)
	if err != nil {
		return nil, err
	}
	var passes []*pass
	start := time.Now()
	for {
		p := w.run(nil)
		passes = append(passes, p)
		if time.Since(start).Seconds()+p.wall > seconds {
			break
		}
		// Start every iteration from the same heap state.
		runtime.GC()
	}
	rep := &report{metrics: map[string]float64{}}
	var walls []float64
	var nOps int
	var memInstr uint64
	var wallSum float64
	for i, p := range passes {
		p.validate()
		rep.errs = append(rep.errs, p.errs...)
		rep.attempted += len(p.ops)
		rep.failed += p.failed
		walls = append(walls, p.wall)
		wallSum += p.wall
		nOps += len(p.ops)
		for _, c := range p.cells {
			memInstr += c.c.MemInstructions
		}
		if d, d0 := p.digest(), passes[0].digest(); d != d0 {
			rep.errs = append(rep.errs, fmt.Sprintf("iteration %d digest %s differs from iteration 0 digest %s", i, d, d0))
		}
	}
	ref, verrs := w.verify(passes[0])
	rep.errs = append(rep.errs, verrs...)
	rep.notes = append(rep.notes,
		fmt.Sprintf("digest %s (%d iterations, walls %.4g s)", passes[0].digest(), len(passes), walls),
		fmt.Sprintf("sim_cycles %d per iteration", passes[0].simCycles()))

	m := rep.metrics
	if m["wall_s"], err = median(walls); err != nil {
		return nil, err
	}
	m["setup_s"] = setupS
	m["sim_minstr_per_s"] = float64(memInstr) / wallSum / 1e6
	m["peak_rss_mb"] = peakRSSMB()
	if pc, err := comparePolicies(ref); err != nil {
		rep.errs = append(rep.errs, err.Error())
	} else {
		m["adaptive_speedup"], m["adaptive_thrash_ratio"] = pc.speedup, pc.thrashRatio
	}
	ops, err := latencies(w, passes)
	if err != nil {
		return nil, err
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"req_p50_ms", 50}, {"req_p99_ms", 99}} {
		v, err := percentile(ops, q.p)
		if err != nil {
			return nil, err
		}
		m[q.name] = v.Value * 1000
		rep.notes = append(rep.notes, fmt.Sprintf("%s of n=%d latencies, %d beyond", q.name, v.N, v.Beyond))
	}
	m["req_per_s"] = float64(nOps) / wallSum
	// error_rate reads 0 whenever nothing fails, so it is printed here
	// and carried by the result line's attempted and failed counts
	// rather than declared as a metric.
	rep.notes = append(rep.notes, fmt.Sprintf("%-36s %16.6f ratio (%d failed of %d attempted)",
		"error_rate", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted))
	return rep, nil
}

// latencies returns the request latencies the percentiles are read
// from. Serve requests are pooled over every round. The other
// workloads repeat the same few cells in every iteration, so each
// cell contributes the median of its iterations; pooling would make the
// tail percentile the slowest of several tries of one cell.
func latencies(w workload, passes []*pass) ([]float64, error) {
	if _, ok := w.(*serveWorkload); ok {
		var all []float64
		for _, p := range passes {
			all = append(all, p.ops...)
		}
		return all, nil
	}
	out := make([]float64, len(passes[0].ops))
	for i := range out {
		var xs []float64
		for _, p := range passes {
			if i < len(p.ops) {
				xs = append(xs, p.ops[i])
			}
		}
		var err error
		if out[i], err = median(xs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measureTraced is the traced run: an untraced pass for the output
// checks, a traced pass under the CPU profiler with spans around every
// public call, an untraced pass to compare its wall time with, then the
// isolated generator drain.
func measureTraced(w workload, tag string) (*report, error) {
	tr := newTracer()
	if _, err := timeSetup(w, tr); err != nil {
		return nil, err
	}
	p0 := w.run(nil)
	ref, verrs := w.verify(p0)
	rep := &report{metrics: map[string]float64{}, errs: verrs}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p1 := w.run(tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	// The first iteration of a process runs measurably slower than later
	// ones, so the overhead compares the traced pass with an untraced
	// pass that follows it.
	runtime.GC()
	p2 := w.run(nil)
	if r, ok := w.(tracedReference); ok {
		rep.errs = append(rep.errs, r.reference(tr, p1)...)
	}
	for _, p := range []*pass{p0, p1, p2} {
		p.validate()
		rep.errs = append(rep.errs, p.errs...)
		rep.attempted += len(p.ops)
		rep.failed += p.failed
	}
	d0, d1, d2 := p0.digest(), p1.digest(), p2.digest()
	if d1 != d0 || d2 != d0 {
		rep.errs = append(rep.errs, fmt.Sprintf("traced digest %s differs from untraced digests %s, %s", d1, d0, d2))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("digest %s untraced, %s traced", d0, d1),
		fmt.Sprintf("sim_cycles %d", p1.simCycles()))

	t0 := time.Now()
	inputs, err := w.buildInputs(tr)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	calls, drainS := drain(inputs, tr)

	flat, err := flatProfile(prof.Bytes(), 1)
	if err != nil {
		return nil, err
	}
	samples, err := flatProfile(prof.Bytes(), 0)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(p1, flat)
	m["workloads.build_s"] = buildS
	m["workloads.next_calls"] = float64(calls)
	if calls > 0 {
		m["workloads.next_ns"] = drainS * 1e9 / float64(calls)
	}
	var nSamples int64
	for _, n := range samples {
		nSamples += n
	}
	m["trace.profile_samples"] = float64(nSamples)
	m["trace.overhead_frac"] = p1.wall/p2.wall - 1
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if pc, err := comparePolicies(ref); err != nil {
		rep.errs = append(rep.errs, err.Error())
	} else {
		for b, s := range pc.perBench {
			m["policy.speedup."+b] = s
		}
	}
	if x, ok := w.(layerExtras); ok {
		for k, v := range x.extraLayers(p2) {
			m[k] = v
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	rep.metrics = m
	rep.notes = append(rep.notes, fmt.Sprintf("spans %d, profile samples %d, trace files %s/%s.*", tr.count(), nSamples, traceDir, tag))
	if err := tr.write(filepath.Join(traceDir, tag+".spans.jsonl")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(traceDir, tag+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// drain iterates every warp program of every kernel of the inputs
// outside the simulator, so the generators' own cost is measured alone.
// It returns the number of instructions produced and the seconds taken.
func drain(inputs []*uvmsim.Workload, tr *tracer) (calls uint64, secs float64) {
	var in uvmsim.Instr
	for _, b := range inputs {
		id := tr.begin("drain "+b.Name, 0)
		t0 := time.Now()
		for _, k := range b.Kernels {
			for cta := 0; cta < k.CTAs; cta++ {
				for wi := 0; wi < k.WarpsPerCTA; wi++ {
					prog := k.NewWarp(cta, wi)
					for prog.Next(&in) {
						calls++
					}
				}
			}
		}
		secs += time.Since(t0).Seconds()
		tr.end(id)
	}
	return calls, secs
}

// layerMetrics derives the per-layer metrics of a traced pass from its
// cells and the flat CPU profile (nanoseconds per function).
func layerMetrics(p *pass, flatNs map[string]int64) map[string]float64 {
	m := map[string]float64{}
	share := bucket(flatNs)
	var totalNs float64
	for _, ns := range flatNs {
		totalNs += float64(ns)
	}
	layerNs := func(ls ...string) float64 {
		var s float64
		for _, l := range ls {
			s += share[l] * totalNs
		}
		return s
	}
	for _, l := range layers {
		if l != "other" {
			m[l+".self_frac"] = share[l]
		}
	}
	m["trace.bucket_coverage"] = 1 - share["other"]
	if totalNs == 0 {
		m["trace.bucket_coverage"] = 0
	}

	var sum uvmsim.Counters
	// Events and memory instructions of the cells whose events are
	// known, indexed [regular, irregular].
	var events, evMem [2]uint64
	var near, observed uint64
	for _, c := range p.cells {
		addCounters(&sum, &c.c)
		cls := 1
		if uvmsim.IsRegular(c.bench) {
			cls = 0
		}
		if c.events > 0 {
			events[cls] += c.events
			evMem[cls] += c.c.MemInstructions
		}
		if c.observed {
			near += c.kinds[0]
			for _, k := range c.kinds {
				observed += k
			}
		}
	}
	allEvents := events[0] + events[1]
	m["sim.events"] = float64(allEvents)
	for cls, name := range []string{"regular", "irregular"} {
		if evMem[cls] > 0 {
			m["sim.events_per_mem_instr."+name] = float64(events[cls]) / float64(evMem[cls])
		}
	}
	if allEvents > 0 {
		m["sim.ns_per_event"] = layerNs("sim") / float64(allEvents)
	}
	m["gpu.mem_instr"] = float64(sum.MemInstructions)
	if observed > 0 {
		m["uvm.near_frac"] = float64(near) / float64(observed)
	}
	frac := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m["uvm.tlb_hit_ratio"] = frac(sum.TLBHits, sum.TLBHits+sum.TLBMisses)
	m["uvm.far_faults"] = float64(sum.FarFaults)
	m["uvm.faults_per_batch"] = frac(sum.FarFaults, sum.FaultBatches)
	m["uvm.prefetch_frac"] = frac(sum.PrefetchedPages, sum.MigratedPages)
	m["uvm.evicted_pages"] = float64(sum.EvictedPages)
	m["uvm.thrashed_pages"] = float64(sum.ThrashedPages)
	m["uvm.remote_accesses"] = float64(sum.RemoteReads + sum.RemoteWrites)
	m["uvm.pcie_mb"] = float64(sum.H2DBytes+sum.D2HBytes) / 1e6
	if sum.FaultBatches > 0 {
		m["uvm.host_us_per_fault_batch"] = layerNs("uvm", "evict", "counters") / 1e3 / float64(sum.FaultBatches)
	}

	if n := len(p.hit) + len(p.miss); n > 0 {
		m["serve.cache_hit_ratio"] = float64(len(p.hit)) / float64(n)
	}
	for name, xs := range map[string][]float64{
		"serve.submit_ms_p50": p.submit, "serve.hit_ms_p50": p.hit, "serve.miss_ms_p50": p.miss,
	} {
		if v, err := median(xs); err == nil {
			m[name] = v * 1000
		}
	}
	return m
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable metric lines, then the result line.
func (r *report) print(workload string, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !out.Correct {
				continue // a failed check already explains the gap
			}
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("%-8s %-36s %16.6f %s\n", workload, d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	notes := append([]string(nil), r.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Printf("%-8s %s\n", workload, n)
	}
	if len(r.errs) > 0 {
		fmt.Printf("%-8s CHECK FAILED: %s\n", workload, strings.Join(r.errs, "; "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
