// Package counters implements the paper's access-counter file (§IV,
// "Access Counter Maintenance"): one 32-bit register per 64KB basic
// block, with the low 27 bits counting accesses (both device-local and
// remote, unlike Volta's remote-only hardware counters) and the top 5
// bits counting round trips — the number of times the block has been
// evicted from device memory. Alongside the registers the file keeps
// each 2MB chunk's access sum, the LFU replacement policy's score.
//
// When either field of any block saturates, the corresponding field of
// every block is halved rather than reset, preserving the relative view
// of hotness across allocations.
package counters

import (
	"uvmsim/internal/memunits"
	"uvmsim/internal/satmath"
)

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

// chunkRegs holds the registers of one 2MB chunk's 32 blocks and their
// running access sum, the chunk's LFU score. Every bump adds to sum and
// every halving sweep rebuilds it, so it always equals the sum of the
// blocks' counts and scoring a chunk is one load.
type chunkRegs struct {
	sum    uint64
	blocks [memunits.BlocksPerChunk]entry
}

// File is the per-64KB-block counter store maintained by the driver.
// Blocks are keyed by global basic-block number (virtual address / 64KB);
// those numbers are small and dense, so the registers live in a flat
// slice of chunks indexed by block / BlocksPerChunk — the counter bump
// on every near access is a single array load away, and the halving
// sweeps are linear scans. The zero value is not usable; call New.
type File struct {
	chunks  []chunkRegs
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

// get returns the block's register, creating it, and its chunk.
//
//sim:hotpath
func (f *File) get(block uint64) (*chunkRegs, *entry) {
	c := block / memunits.BlocksPerChunk
	if c >= uint64(len(f.chunks)) {
		n := satmath.Add(c, 1)
		if m := uint64(2 * len(f.chunks)); m > n {
			n = m
		}
		//simlint:allow hotalloc -- doubling grow path runs O(log n) times, amortized free
		grown := make([]chunkRegs, n)
		copy(grown, f.chunks)
		f.chunks = grown
	}
	r := &f.chunks[c]
	e := &r.blocks[block%memunits.BlocksPerChunk]
	if !e.present {
		e.present = true
		f.tracked++
	}
	return r, e
}

// at returns the block's register or nil when it has none.
func (f *File) at(block uint64) *entry {
	if c := block / memunits.BlocksPerChunk; c < uint64(len(f.chunks)) {
		if e := &f.chunks[c].blocks[block%memunits.BlocksPerChunk]; e.present {
			return e
		}
	}
	return nil
}

// Access records one access to the block and returns the updated count.
// On saturation every block's access count is halved first.
//
//sim:hotpath
func (f *File) Access(block uint64) uint64 {
	f.totalAccesses++
	r, e := f.get(block)
	if e.access == MaxAccess {
		f.halveAccess()
	}
	e.access++
	r.sum++
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
	r, e := f.get(block)
	if satmath.Add(uint64(e.access), k) <= MaxAccess {
		e.access += uint32(k)
		r.sum = satmath.Add(r.sum, k)
		return uint64(e.access)
	}
	for ; k > 0; k-- {
		if e.access == MaxAccess {
			f.halveAccess()
		}
		e.access++
		r.sum++
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
	_, e := f.get(block)
	if e.trips == MaxRoundTrip {
		f.halveTrips()
	}
	e.trips++
}

// halveAccess halves every block's access count (saturation policy)
// and rebuilds the chunk sums in the same sweep.
func (f *File) halveAccess() {
	f.accessHalvings++
	for c := range f.chunks {
		r := &f.chunks[c]
		r.sum = 0
		for i := range r.blocks {
			r.blocks[i].access >>= 1
			r.sum = satmath.Add(r.sum, uint64(r.blocks[i].access))
		}
	}
}

// halveTrips halves every block's round-trip count.
func (f *File) halveTrips() {
	f.tripHalvings++
	for c := range f.chunks {
		for i := range f.chunks[c].blocks {
			f.chunks[c].blocks[i].trips >>= 1
		}
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

// ChunkScore returns the total access count of the 2MB chunk's blocks,
// the score the LFU eviction policy ranks chunks by.
func (f *File) ChunkScore(chunk uint64) uint64 {
	if chunk < uint64(len(f.chunks)) {
		return f.chunks[chunk].sum
	}
	return 0
}

// MaxRoundTrips returns the largest round-trip count over a block range.
// The Adaptive policy pins a whole migration unit as hard as its most
// thrashed block.
func (f *File) MaxRoundTrips(first uint64, n uint64) uint64 {
	var trips uint64
	end := satmath.Add(first, n)
	if lim := satmath.Mul(uint64(len(f.chunks)), memunits.BlocksPerChunk); end > lim {
		end = lim
	}
	for b := first; b < end; b++ {
		trips = max(trips, f.RoundTrips(b))
	}
	return trips
}
