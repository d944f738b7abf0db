package uvm

import "uvmsim/internal/memunits"

// accumBatcher accumulates far-faulting blocks into the batch the
// driver processes after the fault-handling latency: a plain
// accumulator with a spare buffer swapped in at close so the batch never
// reallocates in steady state. It relies on the driver's
// merge-on-pending semantics for uniqueness: a block only ever faults
// once per round because later accesses join its waiter list instead of
// re-faulting.
type accumBatcher struct {
	batch, spare []memunits.BlockNum
	open         bool
}

// add records a far-faulting block. opened reports whether this fault
// opened a new batch round, in which case the driver schedules the
// round's close after the fault-handling latency.
func (a *accumBatcher) add(b memunits.BlockNum) (opened bool) {
	opened = !a.open
	a.open = true
	a.batch = append(a.batch, b)
	return opened
}

// close returns the batch accumulated since the last close and opens
// the next round. The slice is valid until the next add.
func (a *accumBatcher) close() []memunits.BlockNum {
	batch := a.batch
	a.batch, a.spare = a.spare[:0], batch
	a.open = false
	return batch
}
