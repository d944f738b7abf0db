// Parallel cluster execution: one fan-out/join per kernel.
//
// Every GPU+driver node owns a private sim.Engine; nodes share only
// immutable state (the allocation space and the built workload's
// kernels and graph data). Within a kernel a node touches nothing but
// its own engine, driver, device memory and PCIe link: nodes interact
// only at the bulk-synchronous kernel barrier. Each node's event stream
// is therefore independent of how the streams interleave — the shared
// engine of sequential mode merely interleaves the same per-node
// streams by (cycle, seq) without changing any node's view — so
// draining every node engine to empty concurrently and then aligning
// the clocks on the barrier is byte-identical to the sequential run.
package multigpu

import (
	"fmt"

	"uvmsim/internal/gpu"
	"uvmsim/internal/sim"
	"uvmsim/internal/sweep"
)

// runKernelParallel runs one kernel over the per-node engines:
//
//  1. launch each node's CTA share in node order, so launches observe
//     the barrier clock the shared engine would show;
//  2. drain every node engine to empty with sweep.Parallel — its join
//     orders every worker's mutations before the reads below, and a
//     worker panic (an event-budget overrun, a *obs.Violation from a
//     node's checker daemon) is re-panicked here, on the caller;
//  3. check every launched node finished;
//  4. align every node clock on the barrier, the max last-event time
//     across nodes — exactly the shared engine's clock after its drain.
func (c *Cluster) runKernelParallel(k gpu.Kernel) {
	for idx, n := range c.nodes {
		sub, ok := splitKernel(k, len(c.nodes), idx)
		n.launched, n.finished = ok, false
		if ok {
			n.g.Launch(sub, n.onKernelDone)
		}
	}
	// Draining to empty also settles trailing prefetch transfers.
	clocks := sweep.Parallel(c.drains, c.workers)
	var barrier sim.Cycle
	for idx, n := range c.nodes {
		if n.launched && !n.finished {
			panic(fmt.Sprintf("multigpu: kernel %s left gpu%d unfinished", k.Name, idx))
		}
		barrier = max(barrier, clocks[idx])
	}
	for _, n := range c.nodes {
		n.eng.AdvanceTo(barrier)
	}
}
