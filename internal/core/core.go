// Package core wires the GPU model, the UVM driver and a workload into a
// complete simulation: kernels launch sequentially with device
// synchronization between them (the cudaDeviceSynchronize model of the
// benchmarks), and the run produces a stats report plus per-kernel
// timing spans.
package core

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// eventBudget bounds any single simulation run; exceeding it means a
// model livelock and panics loudly rather than hanging.
const eventBudget = 2_000_000_000

// KernelSpan records one kernel launch's window.
type KernelSpan struct {
	Name  string
	Iter  int // logical iteration (1-based)
	Start sim.Cycle
	End   sim.Cycle
}

// Result is the outcome of one simulation run.
type Result struct {
	Workload string
	Config   config.Config
	Counters stats.Counters
	Spans    []KernelSpan
}

// Runtime returns the total kernel execution time in cycles.
func (r *Result) Runtime() uint64 { return r.Counters.Cycles }

// Simulator couples one built workload with one configuration.
type Simulator struct {
	Engine *sim.Engine
	Driver *uvm.Driver
	GPU    *gpu.GPU
	built  *workloads.Built
	cfg    config.Config

	// Observability state (see obs.go); zero when disabled.
	obsRun     *obs.Run
	checker    *obs.Checker
	checkEvery uint64
	checksRun  uint64
}

// New creates a simulator for the workload under the configuration.
func New(b *workloads.Built, cfg config.Config) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	eng := sim.NewEngine()
	eng.SetEventBudget(eventBudget)
	drv := uvm.New(eng, cfg, b.Space)
	g := gpu.New(eng, cfg, drv, drv.Stats())
	return &Simulator{Engine: eng, Driver: drv, GPU: g, built: b, cfg: cfg}
}

// SetObserver installs a driver access observer (tracing).
func (s *Simulator) SetObserver(obs uvm.AccessObserver) { s.Driver.SetObserver(obs) }

// Run executes every kernel in order and returns the result. It panics
// if the memory subsystem fails to quiesce (a model deadlock) or if the
// stats invariants do not hold.
func (s *Simulator) Run() *Result {
	res := &Result{Workload: s.built.Name, Config: s.cfg}
	for i, k := range s.built.Kernels {
		start := s.Engine.Now()
		end := s.GPU.RunSync(k)
		span := KernelSpan{Name: k.Name, Iter: s.built.IterOf[i], Start: start, End: end}
		res.Spans = append(res.Spans, span)
		s.observeKernel(span)
	}
	// Drain in-flight migrations (prefetches may outlive the last warp).
	s.Engine.Run()
	if s.Driver.PendingWork() {
		panic(fmt.Sprintf("core: %s did not quiesce (stuck migrations)", s.built.Name))
	}
	if s.checkEvery > 0 {
		if err := s.CheckNow(); err != nil {
			panic(err)
		}
		// The run has quiesced, so the strict (non-mid-run) walk applies.
		if err := s.Driver.CheckConsistency(); err != nil {
			panic(&obs.Violation{Cycle: uint64(s.Engine.Now()), Check: "driver-consistency-final", Err: err})
		}
	}
	s.Driver.Finalize()
	res.Counters = *s.Driver.Stats()
	res.Counters.Cycles = uint64(s.Engine.Now())
	if err := res.Counters.Validate(); err != nil {
		panic(fmt.Sprintf("core: %s: %v", s.built.Name, err))
	}
	return res
}

// Run builds and runs a workload in one step.
func Run(b *workloads.Built, cfg config.Config) *Result {
	return New(b, cfg).Run()
}

// PrepareWorkload builds the named workload at the given scale and
// derives the run configuration: the migration policy is applied (with
// the paper's replacement-policy pairing) and device memory is sized so
// that a 1/shares share of the working set is oversubPercent of
// capacity (100 = fits exactly). shares is 1 for single-GPU runs; the
// multi-GPU harness passes the cluster size so per-GPU oversubscription
// pressure stays comparable across cluster sizes. This is the single
// source of the workload-to-config plumbing shared by the single-GPU
// and multi-GPU entry points.
func PrepareWorkload(name string, scale float64, shares int, oversubPercent uint64, pol config.MigrationPolicy, base config.Config) (*workloads.Built, config.Config) {
	b := workloads.MustGet(name)(scale)
	return b, DeriveConfig(b, shares, oversubPercent, pol, base)
}

// DeriveConfig is the configuration half of PrepareWorkload, split out
// so callers holding an already-built (possibly memoized and shared)
// workload can derive per-cell configurations without rebuilding it.
// A Built is immutable once constructed, so one instance may back any
// number of concurrent runs, each with its own derived config.
func DeriveConfig(b *workloads.Built, shares int, oversubPercent uint64, pol config.MigrationPolicy, base config.Config) config.Config {
	if shares < 1 {
		panic(fmt.Sprintf("core: invalid share count %d", shares))
	}
	ws := b.WorkingSet() / uint64(shares)
	return base.WithPolicy(pol).WithOversubscription(ws, oversubPercent)
}

// RunWorkload is the experiment-harness entry point: it builds the named
// workload at the given scale, sizes device memory so the working set is
// oversubPercent of capacity (100 = fits exactly), applies the migration
// policy (with the paper's replacement-policy pairing), and runs.
func RunWorkload(name string, scale float64, oversubPercent uint64, pol config.MigrationPolicy, base config.Config) *Result {
	b, cfg := PrepareWorkload(name, scale, 1, oversubPercent, pol, base)
	return Run(b, cfg)
}
