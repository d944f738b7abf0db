// Package multigpu implements the paper's proposed future work (§VIII):
// running collaborative applications across a multi-GPU cluster and
// using the dynamic-threshold heuristic as a per-GPU memory throttling
// mechanism.
//
// A Cluster couples N GPU+driver replicas. Each kernel of a workload is
// split into contiguous CTA ranges, one per GPU, and executed
// bulk-synchronously: all GPUs launch their share, and the next kernel
// starts only after every GPU finishes (the barrier of collaborative
// UVM applications). Every GPU has its own device memory and its own
// PCIe link to host memory, so each driver's Adaptive threshold
// responds to its *local* occupancy — the throttling behaviour the
// paper wants to study.
//
// By default all replicas share one discrete-event engine and the run
// is single-threaded. When cfg.ClusterWorkers > 1 each GPU+driver node
// instead owns its engine, and every kernel fans the node engines out
// to that many workers and joins them at the kernel barrier (see
// parallel.go), producing byte-identical results.
//
// Host-side coherence between GPUs is not modelled: collaborative
// workloads partition their writes, and the policies under study see
// only access streams (see DESIGN.md §7).
package multigpu

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/gpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// eventBudget bounds any single engine; exceeding it means a model
// livelock and panics loudly rather than hanging.
const eventBudget = 4_000_000_000

// node is one GPU with its private UVM driver. In sequential mode every
// node's eng field aliases the cluster's shared engine; in parallel mode
// each node owns its engine, and all of the node's mutable simulation
// state (engine, driver, GPU, checker) is touched by exactly one
// goroutine at a time (see parallel.go).
type node struct {
	eng *sim.Engine
	drv *uvm.Driver
	g   *gpu.GPU

	// ck is the node's invariant checker (nil when observability is
	// off); checks counts its periodic sweeps.
	ck     *obs.Checker
	checks uint64

	// Per-kernel bulk-synchronous bookkeeping (parallel mode): launched
	// is set at launch time, finished by the kernel's completion event
	// on whichever worker drains this node.
	launched bool
	finished bool
}

// onKernelDone is the prebound kernel-completion callback (parallel
// mode).
func (n *node) onKernelDone(sim.Cycle) { n.finished = true }

// check runs the node's invariant checker at the current cycle,
// panicking with a cycle-stamped *obs.Violation on the first breach.
func (n *node) check() {
	n.checks++
	if err := n.ck.RunAll(uint64(n.eng.Now())); err != nil {
		panic(err)
	}
}

// Cluster runs one workload across several GPUs.
type Cluster struct {
	eng     *sim.Engine // shared engine; nil when every node owns its engine
	workers int         // parallel fan-out width; 1 in sequential mode
	nodes   []*node
	drains  []func() sim.Cycle // parallel mode: each node engine's Run
	built   *workloads.Built
}

// Workers reports the worker count the cluster will use (1 =
// sequential single-engine mode).
func (c *Cluster) Workers() int { return c.workers }

// Observe attaches per-GPU observability: mk is called once per GPU and
// may return nil to skip that GPU. Each observed GPU gets an invariant
// checker that walks its driver's consistency check, panicking with a
// cycle-stamped *obs.Violation on the first breach, at a shared period
// (the maximum CheckEvery over the returned runs). In sequential mode
// one sweep over every checker, in fixed node order, rides on the
// shared engine daemon; in parallel mode each checker rides on its own
// node engine's daemon, so it only ever walks state its worker owns.
// Call before Run.
func (c *Cluster) Observe(mk func(gpuIdx int) *obs.Run) {
	var checkEvery uint64
	for idx, n := range c.nodes {
		n.ck = nil
		n.eng.SetDaemon(0, nil)
		r := mk(idx)
		n.drv.SetObs(r)
		n.g.SetObs(r)
		if !r.Enabled() {
			continue
		}
		checkEvery = max(checkEvery, r.CheckEvery)
		if r.Reg != nil {
			r.Reg.RegisterProvider(func(e obs.Emitter) {
				// Cluster-wide totals, identical between the sequential
				// and parallel modes: the barrier clock and the union of
				// every node's event stream.
				e.Counter("sim.cycles", c.clusterNow())
				e.Counter("sim.events_fired", c.clusterFired())
			})
		}
		n.ck = &obs.Checker{}
		n.ck.Add(fmt.Sprintf("gpu%d-driver-consistency", idx), n.drv.CheckConsistencyMidRun)
	}
	if checkEvery == 0 {
		return
	}
	// Daemons observe state at real event boundaries and never extend
	// the run, so checking cannot change results.
	every := sim.Cycle(checkEvery)
	if c.eng != nil {
		c.eng.SetDaemon(every, c.checkAll)
		return
	}
	for _, n := range c.nodes {
		if n.ck != nil {
			n.eng.SetDaemon(every, n.check)
		}
	}
}

// checkAll is the sequential-mode invariant sweep: every node's checker
// in fixed node order.
func (c *Cluster) checkAll() {
	for _, n := range c.nodes {
		if n.ck != nil {
			n.check()
		}
	}
}

// clusterNow returns the cluster-wide clock: the shared engine's in
// sequential mode, the latest node clock in parallel mode (after a run
// all node clocks sit on the final barrier, so this is the makespan).
func (c *Cluster) clusterNow() uint64 {
	if c.eng != nil {
		return uint64(c.eng.Now())
	}
	var max sim.Cycle
	for _, n := range c.nodes {
		if now := n.eng.Now(); now > max {
			max = now
		}
	}
	return uint64(max)
}

// clusterFired returns the total events fired across the cluster. The
// per-node engines of parallel mode fire exactly the events the shared
// engine fires sequentially, so the sum matches eng.Fired() there.
func (c *Cluster) clusterFired() uint64 {
	if c.eng != nil {
		return c.eng.Fired()
	}
	var sum uint64
	for _, n := range c.nodes {
		sum += n.eng.Fired()
	}
	return sum
}

// Result aggregates a cluster run.
type Result struct {
	// Cycles is the makespan: the cycle at which the last GPU finished
	// the last kernel.
	Cycles uint64
	// PerGPU holds each GPU's driver counters.
	PerGPU []stats.Counters
}

// TotalThrashedPages sums thrashing across GPUs.
func (r *Result) TotalThrashedPages() uint64 {
	var sum uint64
	for i := range r.PerGPU {
		sum += r.PerGPU[i].ThrashedPages
	}
	return sum
}

// TotalRemoteAccesses sums zero-copy traffic across GPUs.
func (r *Result) TotalRemoteAccesses() uint64 {
	var sum uint64
	for i := range r.PerGPU {
		sum += r.PerGPU[i].RemoteAccesses()
	}
	return sum
}

// New creates a cluster of nGPUs over the workload. cfg.DeviceMemBytes
// is the per-GPU memory capacity. cfg.ClusterWorkers > 1 selects the
// parallel execution mode (parallel.go); results are byte-identical
// either way.
func New(b *workloads.Built, cfg config.Config, nGPUs int) *Cluster {
	if nGPUs < 1 {
		panic(fmt.Sprintf("multigpu: %d GPUs", nGPUs))
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("multigpu: %v", err))
	}
	c := &Cluster{built: b, workers: 1}
	if cfg.ClusterWorkers > 1 && nGPUs > 1 {
		c.workers = min(cfg.ClusterWorkers, nGPUs)
	} else {
		c.eng = sim.NewEngine()
		c.eng.SetEventBudget(eventBudget)
	}
	for i := 0; i < nGPUs; i++ {
		eng := c.eng
		if eng == nil {
			eng = sim.NewEngine()
			eng.SetEventBudget(eventBudget)
			c.drains = append(c.drains, eng.Run)
		}
		drv := uvm.New(eng, cfg, b.Space)
		c.nodes = append(c.nodes, &node{eng: eng, drv: drv, g: gpu.New(eng, cfg, drv, drv.Stats())})
	}
	return c
}

// splitKernel returns GPU idx's contiguous CTA share of k, or ok=false
// when the GPU has no work for this kernel.
func splitKernel(k gpu.Kernel, nGPUs, idx int) (gpu.Kernel, bool) {
	per := (k.CTAs + nGPUs - 1) / nGPUs
	lo := idx * per
	hi := lo + per
	if hi > k.CTAs {
		hi = k.CTAs
	}
	if lo >= hi {
		return gpu.Kernel{}, false
	}
	return gpu.Kernel{
		Name:        fmt.Sprintf("%s@gpu%d", k.Name, idx),
		CTAs:        hi - lo,
		WarpsPerCTA: k.WarpsPerCTA,
		NewWarp: func(cta, w int) gpu.WarpProgram {
			return k.NewWarp(lo+cta, w)
		},
	}, true
}

// Run executes the workload bulk-synchronously and returns the result.
// Every kernel launches each GPU's CTA share and completes only after
// the whole cluster drains (the kernel barrier).
func (c *Cluster) Run() *Result {
	for _, k := range c.built.Kernels {
		if c.eng == nil {
			c.runKernelParallel(k)
		} else {
			c.runKernelShared(k)
		}
	}
	if c.eng == nil {
		// Every node clock already sits on the last kernel barrier.
		return c.finish(sim.Cycle(c.clusterNow()))
	}
	c.eng.Run() // drain trailing prefetch transfers
	return c.finish(c.eng.Now())
}

// runKernelShared runs one kernel on the shared engine (sequential
// mode), interleaving every GPU's event stream by (cycle, seq).
func (c *Cluster) runKernelShared(k gpu.Kernel) {
	remaining := 0
	for idx, n := range c.nodes {
		sub, ok := splitKernel(k, len(c.nodes), idx)
		if !ok {
			continue
		}
		remaining++
		n.g.Launch(sub, func(sim.Cycle) { remaining-- })
	}
	c.eng.Run()
	if remaining != 0 {
		panic(fmt.Sprintf("multigpu: kernel %s left %d GPUs unfinished", k.Name, remaining))
	}
}

// finish validates quiescence and collects the per-GPU counters; shared
// by the sequential and parallel paths, which by construction reach it with
// identical driver states and makespan.
func (c *Cluster) finish(makespan sim.Cycle) *Result {
	res := &Result{Cycles: uint64(makespan)}
	for _, n := range c.nodes {
		if n.drv.PendingWork() {
			panic("multigpu: driver did not quiesce")
		}
		if err := n.drv.CheckConsistency(); err != nil {
			panic(fmt.Sprintf("multigpu: %v", err))
		}
		n.drv.Finalize()
		st := *n.drv.Stats()
		st.Cycles = res.Cycles
		res.PerGPU = append(res.PerGPU, st)
	}
	return res
}

// RunWorkload is the convenience entry point: it builds the named
// workload, gives each of nGPUs capacity so that the *per-GPU share* of
// the working set is oversubPercent of its memory, applies the policy,
// and runs. With contiguous CTA splitting each GPU's hot footprint is
// roughly workingSet/nGPUs, so oversubscription pressure per GPU stays
// comparable across cluster sizes.
func RunWorkload(name string, scale float64, nGPUs int, oversubPercent uint64, pol config.MigrationPolicy, base config.Config) *Result {
	b, cfg := core.PrepareWorkload(name, scale, nGPUs, oversubPercent, pol, base)
	return New(b, cfg, nGPUs).Run()
}
