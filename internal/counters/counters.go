// Package counters implements the paper's access-counter file (§IV,
// "Access Counter Maintenance"): one 32-bit register per 64KB basic
// block, with the low 27 bits counting accesses (both device-local and
// remote, unlike Volta's remote-only hardware counters) and the top 5
// bits counting round trips — the number of times the block has been
// evicted from device memory.
//
// When either field of any block saturates, the corresponding field of
// every block is halved rather than reset, preserving the relative view
// of hotness across allocations.
package counters

import "uvmsim/internal/satmath"

// Bit widths of the two fields packed into the 32-bit register.
const (
	AccessBits    = 27
	RoundTripBits = 5

	MaxAccess    = 1<<AccessBits - 1    // 134217727
	MaxRoundTrip = 1<<RoundTripBits - 1 // 31
)

// entry holds one block's unpacked register. present marks blocks that
// have a register at all (Tracked), which a zero count cannot convey.
type entry struct {
	access  uint32
	trips   uint8
	present bool
}

// File is the per-64KB-block counter store maintained by the driver.
// Blocks are keyed by global basic-block number (virtual address / 64KB);
// those numbers are small and dense, so the registers live in a flat
// slice indexed by block number — the counter bump on every near access
// is a single array load away, and the halving sweeps are linear scans.
// The zero value is not usable; call New.
type File struct {
	blocks  []entry
	tracked int

	// Saturation statistics, exposed for tests and reports.
	accessHalvings uint64
	tripHalvings   uint64
	totalAccesses  uint64 // monotonic, never halved
}

// New returns an empty counter file.
func New() *File {
	return &File{}
}

//sim:hotpath
func (f *File) get(block uint64) *entry {
	if block >= uint64(len(f.blocks)) {
		n := satmath.Add(block, 1)
		if m := uint64(2 * len(f.blocks)); m > n {
			n = m
		}
		//simlint:allow hotalloc -- doubling grow path runs O(log n) times, amortized free
		grown := make([]entry, n)
		copy(grown, f.blocks)
		f.blocks = grown
	}
	e := &f.blocks[block]
	if !e.present {
		e.present = true
		f.tracked++
	}
	return e
}

// at returns the block's register or nil when it has none.
func (f *File) at(block uint64) *entry {
	if block < uint64(len(f.blocks)) && f.blocks[block].present {
		return &f.blocks[block]
	}
	return nil
}

// Access records one access to the block and returns the updated count.
// On saturation every block's access count is halved first.
//
//sim:hotpath
func (f *File) Access(block uint64) uint64 {
	f.totalAccesses++
	e := f.get(block)
	if e.access == MaxAccess {
		f.halveAccess()
	}
	e.access++
	return uint64(e.access)
}

// AccessRun records k accesses to the same block and returns the
// updated count, exactly equivalent to k sequential Access calls: when
// the whole run fits below saturation it is a single add, otherwise it
// falls back to per-increment stepping so every halving sweep fires at
// the same access it would have under the unbatched path.
//
//sim:hotpath
func (f *File) AccessRun(block uint64, k uint64) uint64 {
	f.totalAccesses = satmath.Add(f.totalAccesses, k)
	e := f.get(block)
	if satmath.Add(uint64(e.access), k) <= MaxAccess {
		e.access += uint32(k)
		return uint64(e.access)
	}
	for ; k > 0; k-- {
		if e.access == MaxAccess {
			f.halveAccess()
		}
		e.access++
	}
	return uint64(e.access)
}

// Count returns the block's current access count.
func (f *File) Count(block uint64) uint64 {
	if e := f.at(block); e != nil {
		return uint64(e.access)
	}
	return 0
}

// RoundTrips returns the block's eviction count r.
func (f *File) RoundTrips(block uint64) uint64 {
	if e := f.at(block); e != nil {
		return uint64(e.trips)
	}
	return 0
}

// NoteEviction records one round trip for the block. On saturation every
// block's round-trip count is halved first.
func (f *File) NoteEviction(block uint64) {
	e := f.get(block)
	if e.trips == MaxRoundTrip {
		f.halveTrips()
	}
	e.trips++
}

// ResetAccess clears the access count of one block. The driver uses this
// when an allocation is freed.
func (f *File) ResetAccess(block uint64) {
	if e := f.at(block); e != nil {
		e.access = 0
	}
}

// halveAccess halves every block's access count (saturation policy).
func (f *File) halveAccess() {
	f.accessHalvings++
	for i := range f.blocks {
		f.blocks[i].access >>= 1
	}
}

// halveTrips halves every block's round-trip count.
func (f *File) halveTrips() {
	f.tripHalvings++
	for i := range f.blocks {
		f.blocks[i].trips >>= 1
	}
}

// TotalAccesses returns the monotonic number of recorded accesses
// (unaffected by halving).
func (f *File) TotalAccesses() uint64 { return f.totalAccesses }

// Halvings reports how many access-field and trip-field halving sweeps
// have occurred.
func (f *File) Halvings() (access, trips uint64) {
	return f.accessHalvings, f.tripHalvings
}

// Tracked returns the number of blocks with a register.
func (f *File) Tracked() int { return f.tracked }

// SumCounts returns the total access count over a block range
// [first, first+n). The LFU eviction policy uses this to score 2MB
// chunks.
func (f *File) SumCounts(first uint64, n uint64) uint64 {
	var sum uint64
	end := satmath.Add(first, n)
	if lim := uint64(len(f.blocks)); end > lim {
		end = lim
	}
	for b := first; b < end; b++ {
		sum = satmath.Add(sum, uint64(f.blocks[b].access))
	}
	return sum
}

// MaxRoundTrips returns the largest round-trip count over a block range.
// The Adaptive policy pins a whole migration unit as hard as its most
// thrashed block.
func (f *File) MaxRoundTrips(first uint64, n uint64) uint64 {
	var max uint64
	end := satmath.Add(first, n)
	if lim := uint64(len(f.blocks)); end > lim {
		end = lim
	}
	for b := first; b < end; b++ {
		if r := uint64(f.blocks[b].trips); r > max {
			max = r
		}
	}
	return max
}
