// Package devmem models device-local memory as a pool of 4KB frames with
// a hard capacity limit. It exposes the occupancy queries that drive the
// no-oversubscription branch of the paper's dynamic threshold (Equation 1)
// and the oversubscription detector that flips the driver into its
// constrained-memory regime.
package devmem

import (
	"fmt"

	"uvmsim/internal/memunits"
)

// Memory is the device-local DRAM frame pool.
//
// The simulator never models physical frame numbers: residency is tracked
// by the page table. Memory only accounts capacity, so Allocate/Release
// operate on frame counts.
type Memory struct {
	totalPages     uint64
	allocatedPages uint64
	// everOversubscribed latches once an allocation request could not be
	// satisfied from free capacity: the paper's "after oversubscription"
	// regime is sticky for the rest of the run.
	everOversubscribed bool
	peakPages          uint64
}

// New creates a device memory with the given byte capacity, which must be
// page aligned.
func New(capacityBytes uint64) *Memory {
	if capacityBytes%memunits.PageSize != 0 {
		panic(fmt.Sprintf("devmem: capacity %d not page aligned", capacityBytes))
	}
	if capacityBytes == 0 {
		panic("devmem: zero capacity")
	}
	return &Memory{totalPages: capacityBytes / memunits.PageSize}
}

// TotalPages returns the capacity in 4KB pages.
func (m *Memory) TotalPages() uint64 { return m.totalPages }

// AllocatedPages returns the number of resident pages.
func (m *Memory) AllocatedPages() uint64 { return m.allocatedPages }

// FreePages returns the number of unoccupied frames.
func (m *Memory) FreePages() uint64 { return m.totalPages - m.allocatedPages }

// PeakPages returns the high-water mark of resident pages.
func (m *Memory) PeakPages() uint64 { return m.peakPages }

// Occupancy returns allocatedPages/totalPages in [0,1].
func (m *Memory) Occupancy() float64 {
	return float64(m.allocatedPages) / float64(m.totalPages)
}

// CanAllocate reports whether n pages fit in the current free space.
func (m *Memory) CanAllocate(n uint64) bool { return n <= m.FreePages() }

// Allocate reserves n frames. It panics if the capacity would be
// exceeded: the UVM driver must evict first, and failing to do so is a
// model bug, not a recoverable condition.
func (m *Memory) Allocate(n uint64) {
	if !m.CanAllocate(n) {
		panic(fmt.Sprintf("devmem: allocating %d pages with only %d free", n, m.FreePages()))
	}
	m.allocatedPages += n
	if m.allocatedPages > m.peakPages {
		m.peakPages = m.allocatedPages
	}
}

// Release returns n frames to the pool.
func (m *Memory) Release(n uint64) {
	if n > m.allocatedPages {
		panic(fmt.Sprintf("devmem: releasing %d pages with only %d allocated", n, m.allocatedPages))
	}
	m.allocatedPages -= n
}

// NoteOversubscribed latches the oversubscription state. The UVM driver
// calls this the first time a migration cannot proceed without eviction.
func (m *Memory) NoteOversubscribed() { m.everOversubscribed = true }

// Oversubscribed reports whether the run has ever hit the capacity wall.
func (m *Memory) Oversubscribed() bool { return m.everOversubscribed }
