package main

import (
	"fmt"
	"reflect"
	"time"

	"uvmsim"
	"uvmsim/internal/obs"
)

// workload is one named benchmark workload.
type workload interface {
	// setup builds the workload's inputs, replacing earlier ones. The
	// benchmark calls it several times and times each call (setup_s).
	setup(tr *tracer) error
	// run performs one timed iteration; tr is nil on untraced passes.
	run(tr *tracer) *pass
	// verify runs the workload's untimed output checks against an
	// untraced pass. It returns the cells the Adaptive-vs-Disabled
	// comparison is computed from and any check failures.
	verify(p *pass) (ref []cell, errs []string)
	// buildInputs builds the workloads whose address generators the
	// iterations drive; the traced run times it (workloads.build_s) and
	// drains the generators in isolation.
	buildInputs(tr *tracer) ([]*uvmsim.Workload, error)
}

// layerExtras is implemented by workloads that add per-layer metrics of
// their own after verify has run.
type layerExtras interface {
	extraLayers(untraced *pass) map[string]float64
}

// tracedReference is implemented by workloads that run a reference
// computation inside the traced run's profiled window.
type tracedReference interface {
	reference(tr *tracer, traced *pass) []string
}

// buildAll builds each named benchmark at scale, one span per build.
func buildAll(names []string, scale float64, tr *tracer) ([]*uvmsim.Workload, error) {
	out := make([]*uvmsim.Workload, 0, len(names))
	for _, n := range names {
		id := tr.begin("build "+n, 0)
		var b *uvmsim.Workload
		err := safely(func() { b = uvmsim.BuildWorkload(n, scale) })
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("building %s@%g: %w", n, scale, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// matrixWorkload runs every (benchmark, policy) cell of a Fig. 6/7
// style matrix on one GPU, in the paper's order: benchmark-major, then
// Disabled, Always, Oversub, Adaptive. With all eight benchmarks at
// scale 1.0 and 125% it is exactly the cell list uvmsim.Fig6And7Cycles
// runs with Workers: 1 and snapshot forking off.
type matrixWorkload struct {
	benches []string
	scale   float64
	pct     uint64
	// figure marks the full Fig. 6/7 matrix, whose traced run also
	// calls uvmsim.Fig6And7Cycles as a reference.
	figure bool
	built  []*uvmsim.Workload
}

func (m *matrixWorkload) buildInputs(tr *tracer) ([]*uvmsim.Workload, error) {
	return buildAll(m.benches, m.scale, tr)
}

func (m *matrixWorkload) setup(tr *tracer) (err error) {
	m.built, err = m.buildInputs(tr)
	return err
}

func (m *matrixWorkload) run(tr *tracer) *pass {
	p := &pass{}
	t0 := time.Now()
	for _, b := range m.built {
		for _, pol := range uvmsim.Policies() {
			cfg := fig6Base().WithPolicy(pol).WithOversubscription(b.WorkingSet(), m.pct)
			c, dur, err := simulate(b, pol, cfg, tr)
			p.ops = append(p.ops, dur)
			if err != nil {
				p.failed++
				p.errs = append(p.errs, err.Error())
				continue
			}
			p.cells = append(p.cells, c)
		}
	}
	p.wall = time.Since(t0).Seconds()
	return p
}

// verify checks the paper's claim on the matrix: Adaptive runs in
// fewer simulated cycles than Disabled on every irregular benchmark.
func (m *matrixWorkload) verify(p *pass) ([]cell, []string) {
	pc, err := comparePolicies(p.cells)
	if err != nil {
		return p.cells, []string{err.Error()}
	}
	var errs []string
	for _, b := range m.benches {
		if uvmsim.IsRegular(b) {
			continue
		}
		if s, ok := pc.perBench[b]; !ok || s <= 1 {
			errs = append(errs, fmt.Sprintf("Adaptive does not beat Disabled on %s (Disabled/Adaptive cycles %.4f)", b, s))
		}
	}
	return p.cells, errs
}

// reference runs the same matrix through uvmsim.Fig6And7Cycles and
// checks that its cycle total and both normalized tables equal the
// ones computed from the benchmark's own cells.
func (m *matrixWorkload) reference(tr *tracer, p *pass) []string {
	if !m.figure {
		return nil
	}
	id := tr.begin("experiments.Fig6And7Cycles", 0)
	var (
		rt, th *uvmsim.Table
		total  uint64
	)
	err := safely(func() {
		rt, th, total = uvmsim.Fig6And7Cycles(uvmsim.ExperimentOptions{Scale: m.scale, Workers: 1})
	})
	tr.end(id)
	if err != nil {
		return []string{"Fig6And7Cycles: " + err.Error()}
	}
	var errs []string
	if got := p.simCycles(); got != total {
		errs = append(errs, fmt.Sprintf("cell cycles sum to %d, Fig6And7Cycles reports %d", got, total))
	}
	byBench := map[string][]cell{}
	for _, c := range p.cells {
		byBench[c.bench] = append(byBench[c.bench], c)
	}
	for _, b := range m.benches {
		cs := byBench[b]
		if len(cs) != len(uvmsim.Policies()) {
			errs = append(errs, fmt.Sprintf("%s: %d cells, want %d", b, len(cs), len(uvmsim.Policies())))
			continue
		}
		for col, c := range cs {
			wantRT := float64(c.c.Cycles) / float64(cs[0].c.Cycles)
			wantTh := 0.0
			if cs[0].c.ThrashedPages != 0 {
				wantTh = float64(c.c.ThrashedPages) / float64(cs[0].c.ThrashedPages)
			}
			if got, ok := rt.Get(b, col); !ok || got != wantRT {
				errs = append(errs, fmt.Sprintf("Fig. 6 %s/%s: table %v, cells %v", b, c.policy, got, wantRT))
			}
			if got, ok := th.Get(b, col); !ok || got != wantTh {
				errs = append(errs, fmt.Sprintf("Fig. 7 %s/%s: table %v, cells %v", b, c.policy, got, wantTh))
			}
		}
	}
	return errs
}

// clusterWorkload runs each benchmark on a multi-GPU cluster under
// Adaptive with two coordinator workers, as uvmsim.RunCluster would.
type clusterWorkload struct {
	benches []string
	scale   float64
	gpus    int
	pct     uint64
	workers int
	built   []*uvmsim.Workload
	// seqWall is the host time of the sequential Adaptive runs verify
	// makes, for multigpu.parallel_speedup.
	seqWall float64
}

func (c *clusterWorkload) buildInputs(tr *tracer) ([]*uvmsim.Workload, error) {
	return buildAll(c.benches, c.scale, tr)
}

func (c *clusterWorkload) setup(tr *tracer) (err error) {
	c.built, err = c.buildInputs(tr)
	return err
}

// runCluster runs one benchmark on the cluster. With a tracer it
// records a span and reads the cluster-wide event count from a metrics
// registry attached to GPU 0.
func (c *clusterWorkload) runCluster(b *uvmsim.Workload, pol uvmsim.MigrationPolicy, workers int, tr *tracer) (cell, float64, error) {
	cfg := uvmsim.DefaultConfig().WithPolicy(pol).WithOversubscription(b.WorkingSet()/uint64(c.gpus), c.pct)
	cfg.ClusterWorkers = workers
	out := cell{bench: b.Name, policy: pol}
	var run *obs.Run
	var res *uvmsim.ClusterResult
	var dur float64
	err := safely(func() {
		cl := uvmsim.NewCluster(b, cfg, c.gpus)
		if tr != nil {
			run = obs.Options{Metrics: true}.NewRun(b.Name)
			cl.Observe(func(gpu int) *obs.Run {
				if gpu == 0 {
					return run
				}
				return nil
			})
		}
		id := tr.begin(fmt.Sprintf("cluster %s/%s workers=%d", b.Name, pol, workers), 0)
		t0 := time.Now()
		res = cl.Run()
		dur = time.Since(t0).Seconds()
		tr.end(id)
	})
	if err != nil {
		return out, dur, fmt.Errorf("cluster %s/%s: %w", b.Name, pol, err)
	}
	out.detail = fmt.Sprintf("%s/%s makespan=%d", b.Name, pol, res.Cycles)
	for i := range res.PerGPU {
		g := &res.PerGPU[i]
		if err := g.Validate(); err != nil {
			return out, dur, fmt.Errorf("cluster %s/%s gpu%d counters: %w", b.Name, pol, i, err)
		}
		out.detail += fmt.Sprintf("\n gpu%d %+v", i, *g)
		addCounters(&out.c, g)
	}
	out.c.Cycles = res.Cycles
	if run != nil {
		snap := run.Collect()
		out.events = snap.Counter("sim.events_fired")
	}
	return out, dur, nil
}

func (c *clusterWorkload) run(tr *tracer) *pass {
	p := &pass{}
	t0 := time.Now()
	for _, b := range c.built {
		cl, dur, err := c.runCluster(b, uvmsim.PolicyAdaptive, c.workers, tr)
		p.ops = append(p.ops, dur)
		if err != nil {
			p.failed++
			p.errs = append(p.errs, err.Error())
			continue
		}
		p.cells = append(p.cells, cl)
	}
	p.wall = time.Since(t0).Seconds()
	return p
}

// verify reruns every benchmark sequentially: under Adaptive, whose
// statistics must equal the parallel run's exactly, and under Disabled,
// the baseline of the Adaptive-vs-Disabled comparison.
func (c *clusterWorkload) verify(p *pass) ([]cell, []string) {
	var ref []cell
	var errs []string
	c.seqWall = 0
	for i, b := range c.built {
		seq, dur, err := c.runCluster(b, uvmsim.PolicyAdaptive, 1, nil)
		c.seqWall += dur
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		if i >= len(p.cells) || p.cells[i].detail != seq.detail {
			errs = append(errs, fmt.Sprintf("cluster %s: %d-worker run differs from the sequential run", b.Name, c.workers))
		}
		dis, _, err := c.runCluster(b, uvmsim.PolicyDisabled, 1, nil)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		ref = append(ref, seq, dis)
	}
	return ref, errs
}

func (c *clusterWorkload) extraLayers(untraced *pass) map[string]float64 {
	s, err := ratio(c.seqWall, untraced.wall)
	if err != nil {
		s = 0
	}
	return map[string]float64{"multigpu.parallel_speedup": s}
}

// addCounters adds every counter of src into dst.
func addCounters(dst, src *uvmsim.Counters) {
	d, v := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + v.Field(i).Uint())
		}
	}
}
