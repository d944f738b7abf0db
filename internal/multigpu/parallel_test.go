package multigpu

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// clusterCSV renders a cluster result as CSV, one row per GPU with every
// counter field; byte equality of two renderings is the equivalence
// criterion the parallel mode promises.
func clusterCSV(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan,%d\n", r.Cycles)
	for i := range r.PerGPU {
		fmt.Fprintf(&b, "gpu%d,%+v\n", i, r.PerGPU[i])
	}
	return b.String()
}

// Property: for randomized workload/scale/policy draws, every GPU count
// in 1..8 and every worker count in {1, 2, GOMAXPROCS}, the parallel
// cluster produces byte-identical stats/CSV output to the sequential
// shared-engine cluster (which worker<=1 falls back to). The built
// workload is shared across all runs of a trial, doubling as a
// concurrent-sharing check under -race.
func TestClusterParallelEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	names := []string{"bfs", "ra", "sssp"}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		name := names[rng.Intn(len(names))]
		nGPUs := 1 + rng.Intn(8)
		scale := 0.04 + 0.04*rng.Float64()
		pol := config.Policies()[rng.Intn(len(config.Policies()))]
		b, cfg := core.PrepareWorkload(name, scale, nGPUs, 125, pol, config.Default())
		want := clusterCSV(New(b, cfg, nGPUs).Run())
		for _, w := range workerCounts {
			pcfg := cfg
			pcfg.ClusterWorkers = w
			cl := New(b, pcfg, nGPUs)
			if got := clusterCSV(cl.Run()); got != want {
				t.Fatalf("trial %d (%s x%d scale=%.3f %v) with %d workers diverged:\n got: %s\nwant: %s",
					trial, name, nGPUs, scale, pol, w, got, want)
			}
		}
	}
}

// The cluster-wide engine metrics (sim.cycles, sim.events_fired) must
// agree between modes: the parallel run fires exactly the union of the
// sequential run's events and stops on the same barrier clock. In
// parallel mode every node's invariant checker rides on its own engine
// daemon, so each must have run.
func TestParallelObservabilityMatchesSequential(t *testing.T) {
	const nGPUs = 4
	b, cfg := core.PrepareWorkload("ra", testScale, nGPUs, 125, config.PolicyAdaptive, config.Default())

	collect := func(workers int) (map[string]uint64, *Cluster, *Result) {
		c := cfg
		c.ClusterWorkers = workers
		cl := New(b, c, nGPUs)
		runs := make([]*obs.Run, 0, nGPUs)
		cl.Observe(func(idx int) *obs.Run {
			r := obs.Options{Metrics: true, CheckEvery: 50_000}.NewRun(fmt.Sprintf("gpu%d", idx))
			runs = append(runs, r)
			return r
		})
		res := cl.Run()
		return runs[0].Collect().Counters, cl, res
	}

	seq, _, seqRes := collect(1)
	par, parCl, parRes := collect(nGPUs)
	if clusterCSV(seqRes) != clusterCSV(parRes) {
		t.Fatalf("observed runs diverged:\n%s\n%s", clusterCSV(seqRes), clusterCSV(parRes))
	}
	for _, key := range []string{"sim.cycles", "sim.events_fired"} {
		if seq[key] != par[key] {
			t.Errorf("%s: sequential %d, parallel %d", key, seq[key], par[key])
		}
	}
	for idx, n := range parCl.nodes {
		if n.checks == 0 {
			t.Errorf("gpu%d: invariant daemon never ran in parallel mode", idx)
		}
	}
}

// ClusterWorkers plumbing: <=1 (and single-GPU clusters) fall back to
// the shared-engine path, larger values clamp to the cluster size and
// give every node its own engine.
func TestClusterWorkerSelection(t *testing.T) {
	b, cfg := core.PrepareWorkload("bfs", 0.05, 2, 125, config.PolicyDisabled, config.Default())
	cases := []struct {
		workers, gpus, want int
	}{
		{0, 2, 1},
		{1, 2, 1},
		{2, 2, 2},
		{8, 2, 2}, // clamped to cluster size
		{4, 1, 1}, // single GPU is always sequential
	}
	for _, tc := range cases {
		c := cfg
		c.ClusterWorkers = tc.workers
		cl := New(b, c, tc.gpus)
		if got := cl.Workers(); got != tc.want {
			t.Errorf("ClusterWorkers=%d over %d GPUs: Workers() = %d, want %d",
				tc.workers, tc.gpus, got, tc.want)
		}
		engines := map[*sim.Engine]bool{}
		for _, n := range cl.nodes {
			engines[n.eng] = true
		}
		wantEngines := 1
		if tc.want > 1 {
			wantEngines = tc.gpus
		}
		if len(engines) != wantEngines {
			t.Errorf("ClusterWorkers=%d over %d GPUs: %d distinct node engines, want %d",
				tc.workers, tc.gpus, len(engines), wantEngines)
		}
	}
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		c := cfg
		c.ClusterWorkers = -1
		New(b, c, 2)
		return nil
	}(); err == nil {
		t.Error("negative ClusterWorkers did not fail validation")
	}
}

// runRecovered runs the cluster and returns the value a panic delivered
// to this (the calling) goroutine, or nil when it completed.
func runRecovered(cl *Cluster) (v any) {
	defer func() { v = recover() }()
	cl.Run()
	return nil
}

// A panic on a worker goroutine — an engine's event-budget overrun, or
// an invariant violation from a node's checker daemon — must surface on
// the goroutine that called Run, where callers (the sweep service, the
// benchmark harness) can recover it, instead of killing the process.
func TestParallelWorkerPanicReachesCaller(t *testing.T) {
	b, cfg := core.PrepareWorkload("bfs", testScale, 2, 125, config.PolicyAdaptive, config.Default())
	cfg.ClusterWorkers = 2

	t.Run("event-budget", func(t *testing.T) {
		cl := New(b, cfg, 2)
		cl.nodes[1].eng.SetEventBudget(10)
		v := runRecovered(cl)
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, "sim: event budget 10 exceeded") {
			t.Fatalf("recovered %#v, want the engine's event-budget panic", v)
		}
	})

	t.Run("invariant-violation", func(t *testing.T) {
		cl := New(b, cfg, 2)
		cl.Observe(func(int) *obs.Run { return &obs.Run{CheckEvery: 1000} })
		cl.nodes[1].ck.Add("always-fails", func() error { return errors.New("injected") })
		v := runRecovered(cl)
		viol, ok := v.(*obs.Violation)
		if !ok || viol.Check != "always-fails" {
			t.Fatalf("recovered %#v, want a *obs.Violation from the failing check", v)
		}
	})
}
