// Package uvmsim is the public API of the GPU Unified-Memory simulator
// reproducing "Adaptive Page Migration for Irregular Data-intensive
// Applications under GPU Memory Oversubscription" (Ganguly, Zhang, Yang,
// Melhem — IPDPS 2020).
//
// The simulator models a Pascal-class GPU (SMs, warps, coalescing), the
// CUDA Unified Memory driver (far-fault batching, the tree-based
// prefetcher, 2MB LRU eviction), a full-duplex PCIe link, Volta-style
// per-64KB access counters, remote zero-copy access, and the paper's
// contribution: the Adaptive dynamic migration threshold
//
//	td = ts * allocatedPages/totalPages + 1   (no oversubscription)
//	td = ts * (r + 1) * p                     (after oversubscription)
//
// together with an access-counter-driven LFU replacement policy.
//
// # Quick start
//
//	b := uvmsim.BuildWorkload("sssp", 1.0)
//	cfg := uvmsim.DefaultConfig().
//		WithPolicy(uvmsim.PolicyAdaptive).
//		WithOversubscription(b.WorkingSet(), 125)
//	res := uvmsim.Run(b, cfg)
//	fmt.Println(res.Counters.String())
//
// The experiments subpackage entry points (Fig1 … Fig8, Table1)
// regenerate every figure and table of the paper's evaluation; see
// EXPERIMENTS.md for measured-versus-paper results.
package uvmsim

import (
	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/experiments"
	"uvmsim/internal/gpu"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/report"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// Core configuration and result types.
type (
	// Config is the simulated-system configuration (Table I).
	Config = config.Config
	// MigrationPolicy selects the delayed-migration scheme.
	MigrationPolicy = config.MigrationPolicy
	// ReplacementPolicy selects LRU or counter-driven LFU eviction.
	ReplacementPolicy = config.ReplacementPolicy
	// PrefetcherKind selects the hardware prefetcher model.
	PrefetcherKind = config.PrefetcherKind
	// Result is the outcome of one simulation run.
	Result = core.Result
	// KernelSpan is one kernel launch's timing window.
	KernelSpan = core.KernelSpan
	// Counters are the raw metrics of a run.
	Counters = stats.Counters
	// Simulator couples a workload with a configuration; use New for
	// fine-grained control (tracing, stepping), or Run for one-shot runs.
	Simulator = core.Simulator
)

// Workload-construction types, exported so downstream users can build
// custom workloads against the simulator (see examples/custom-workload).
type (
	// Workload is an instantiated benchmark ready to simulate.
	Workload = workloads.Built
	// Space is a managed virtual address space (cudaMallocManaged model).
	Space = alloc.Space
	// Allocation is one managed allocation.
	Allocation = alloc.Allocation
	// Kernel describes one kernel launch.
	Kernel = gpu.Kernel
	// Instr is one warp instruction.
	Instr = gpu.Instr
	// WarpProgram generates a warp's instruction stream.
	WarpProgram = gpu.WarpProgram
)

// Migration policy constants (the four schemes of §VI).
const (
	PolicyDisabled = config.PolicyDisabled
	PolicyAlways   = config.PolicyAlways
	PolicyOversub  = config.PolicyOversub
	PolicyAdaptive = config.PolicyAdaptive
)

// Replacement policy constants.
const (
	ReplaceLRU = config.ReplaceLRU
	ReplaceLFU = config.ReplaceLFU
)

// Prefetcher constants.
const (
	PrefetchTree       = config.PrefetchTree
	PrefetchNone       = config.PrefetchNone
	PrefetchSequential = config.PrefetchSequential
)

// Advice mirrors the cudaMemAdvise-style hints of §III-C; attach hints
// with Simulator.Driver.Advise before running (see
// examples/hints-vs-adaptive).
type Advice = uvm.Advice

// Advice constants.
const (
	AdviceNone       = uvm.AdviceNone
	AdvicePreferHost = uvm.AdvicePreferHost
	AdvicePinHost    = uvm.AdvicePinHost
)

// DefaultConfig returns the boldface Table I configuration.
func DefaultConfig() Config { return config.Default() }

// PresetConfig returns a named architecture preset ("pascal" = Table I
// default, "volta" = V100-class).
func PresetConfig(name string) (Config, error) { return config.Preset(name) }

// NewSpace returns an empty managed address space for custom workloads.
func NewSpace() *Space { return alloc.NewSpace() }

// Policies lists the four migration policies in the paper's order.
func Policies() []MigrationPolicy { return config.Policies() }

// Workloads returns all benchmark names in the paper's order:
// backprop, fdtd, hotspot, srad (regular); bfs, nw, ra, sssp (irregular).
func Workloads() []string { return workloads.Names() }

// RegularWorkloads returns the four regular benchmark names.
func RegularWorkloads() []string { return workloads.RegularNames() }

// IrregularWorkloads returns the four irregular benchmark names.
func IrregularWorkloads() []string { return workloads.IrregularNames() }

// ExtraWorkloads returns the additional workloads shipped beyond the
// paper's suite (spatter, pointerchase); they are buildable through
// BuildWorkload but excluded from the figure sweeps.
func ExtraWorkloads() []string { return workloads.ExtraNames() }

// AllWorkloads returns the paper workloads followed by the extras.
func AllWorkloads() []string { return workloads.AllNames() }

// IsRegular reports the paper's classification of a workload.
func IsRegular(name string) bool { return workloads.IsRegular(name) }

// BuildWorkload instantiates a named benchmark at the given scale
// (1.0 = paper size, tens of MB of working set). It panics on unknown
// names; use Workloads for the valid set.
func BuildWorkload(name string, scale float64) *Workload {
	return workloads.MustGet(name)(scale)
}

// New creates a Simulator for a workload under a configuration.
func New(w *Workload, cfg Config) *Simulator { return core.New(w, cfg) }

// Run simulates the workload under the configuration and returns the
// result.
func Run(w *Workload, cfg Config) *Result { return core.Run(w, cfg) }

// RunWorkload builds the named workload at scale, sizes device memory so
// the working set is oversubPercent of capacity (100 = fits exactly,
// 125 = the paper's oversubscription point), applies the policy, and
// runs.
func RunWorkload(name string, scale float64, oversubPercent uint64, pol MigrationPolicy, base Config) *Result {
	return core.RunWorkload(name, scale, oversubPercent, pol, base)
}

// Multi-GPU extension (the paper's §VIII future work): collaborative
// execution across a cluster with per-GPU memory throttling.
type (
	// Cluster runs one workload bulk-synchronously across several GPUs.
	Cluster = multigpu.Cluster
	// ClusterResult aggregates a cluster run.
	ClusterResult = multigpu.Result
)

// NewCluster creates a cluster of nGPUs over the workload
// (cfg.DeviceMemBytes is per-GPU capacity). With cfg.ClusterWorkers > 1
// every GPU gets its own engine and each kernel drains them on that
// many workers before joining at the kernel barrier (DESIGN.md §12),
// producing byte-identical results to the sequential default.
func NewCluster(w *Workload, cfg Config, nGPUs int) *Cluster {
	return multigpu.New(w, cfg, nGPUs)
}

// RunCluster builds and runs the named workload on nGPUs, sizing each
// GPU's memory so its share of the working set is oversubPercent of
// capacity. cfg.ClusterWorkers selects sequential or parallel execution as
// in NewCluster.
func RunCluster(name string, scale float64, nGPUs int, oversubPercent uint64, pol MigrationPolicy, base Config) *ClusterResult {
	return multigpu.RunWorkload(name, scale, nGPUs, oversubPercent, pol, base)
}

// Experiment harness re-exports: each FigN regenerates the corresponding
// figure of the paper's evaluation.
type (
	// ExperimentOptions configures an experiment sweep.
	ExperimentOptions = experiments.Options
	// Table is a formatted experiment result.
	Table = report.Table
)

// Figure and table regeneration entry points. MultiGPU runs the §VIII
// future-work extension study.
var (
	MultiGPU    = experiments.MultiGPU
	OracleHints = experiments.OracleHints
	Fig1        = experiments.Fig1
	Fig2        = experiments.Fig2
	Fig3        = experiments.Fig3
	Fig4        = experiments.Fig4
	Fig5        = experiments.Fig5
	Fig6        = experiments.Fig6
	Fig7        = experiments.Fig7
	Fig6And7    = experiments.Fig6And7
	// Fig6And7Cycles additionally reports the sweep's deterministic
	// simulated-cycle total (the metric TestCycleLedger pins).
	Fig6And7Cycles = experiments.Fig6And7Cycles
	Fig8           = experiments.Fig8
	Table1         = experiments.Table1
)
