package uvm

import (
	"uvmsim/internal/evict"
	"uvmsim/internal/interconnect"
	"uvmsim/internal/memunits"
	"uvmsim/internal/obs"
)

// evictOne frees one eviction unit through the pipeline's eviction
// engine. dest is the chunk currently being migrated into; it is never
// victimized. Returns false when the engine declined to evict right now.
func (d *Driver) evictOne(dest *chunkState) bool {
	d.mem.NoteOversubscribed()
	d.ehost.dest = dest
	ok := d.evictor.EvictOne(&d.ehost)
	d.ehost.dest = nil
	return ok
}

// evictionHost is the driver's implementation of mm.EvictionHost: the
// capacity-management view an EvictionEngine sees. It exposes candidate
// collection at both granularities and applies the engine's choice,
// keeping all residency bookkeeping (TLB shootdowns, counters, tree
// occupancy, write-back) inside the driver. The host is embedded in the
// Driver and reuses its scratch slices, so victim selection allocates
// nothing in steady state.
//
// Candidates returned by ChunkCandidates/BlockCandidates are valid only
// until the next collection call, and an Evict index refers to the most
// recent collection.
type evictionHost struct {
	d *Driver
	// dest is the chunk being migrated into during the current EvictOne
	// call; excluded from candidacy.
	dest *chunkState
	// blockMode records which granularity the last collection used, so
	// Evict applies the choice to the right scratch set.
	blockMode bool
}

// ChunkCandidates collects the 2MB-granularity eviction candidates.
// Strict collection pins chunks with queued or in-flight migrations and
// recently touched chunks (the recency guard); the relaxed pass pins
// only chunks with blocks on the wire, guaranteeing forward progress
// when the FIFO head blocks everything.
func (h *evictionHost) ChunkCandidates(strict bool) []evict.Candidate {
	d := h.d
	h.blockMode = false
	// Index-order iteration keeps the candidate list sorted by unit
	// number, which is what victim selection's determinism relies on.
	cands := d.candScratch[:0]
	states := d.chunkScratch[:0]
	now := d.eng.Now()
	for num, cs := range d.chunkArr {
		if cs == nil || cs.residentBlocks == 0 || cs == h.dest {
			continue
		}
		pinned := cs.inFlightBlocks > 0
		if strict {
			// Freshly landed or recently touched chunks are protected in
			// the strict pass: their counters have not caught up yet and
			// evicting them re-faults the active working set (LFU
			// cold-start). The relaxed pass ignores the guard.
			recent := d.cfg.EvictionRecencyGuard > 0 &&
				now-cs.lastAccess < d.cfg.EvictionRecencyGuard
			pinned = cs.pinnedStandard() || recent
		}
		cands = append(cands, evict.Candidate{
			Unit:       uint64(num),
			LastAccess: cs.lastAccess,
			Score:      d.ctrs.ChunkScore(uint64(num)),
			Dirty:      cs.dirtyBlocks > 0,
			Full:       cs.pf.Tree().Full(),
			Pinned:     pinned,
		})
		states = append(states, cs)
	}
	d.candScratch, d.chunkScratch = cands, states
	return cands
}

// BlockCandidates collects the 64KB-granularity eviction candidates
// (the block-granularity ablation). Only the recency guard pins blocks,
// and only in the strict pass.
func (h *evictionHost) BlockCandidates(strict bool) []evict.Candidate {
	d := h.d
	h.blockMode = true
	now := d.eng.Now()
	cands := d.candScratch[:0]
	nums := d.numScratch[:0]
	owners := d.ownerScratch[:0]
	// Chunk-index order implies ascending block numbers: a chunk's
	// blocks are contiguous, so the candidate list comes out sorted
	// by unit without any extra work.
	for _, cs := range d.chunkArr {
		if cs == nil || cs.residentBlocks == 0 || cs == h.dest {
			continue
		}
		first := cs.info.FirstBlock()
		for b := first; b < first+memunits.BlockNum(cs.info.Blocks()); b++ {
			bs := d.blockAt(b)
			if bs == nil || !bs.resident {
				continue
			}
			recent := strict && d.cfg.EvictionRecencyGuard > 0 &&
				now-bs.lastAccess < d.cfg.EvictionRecencyGuard
			cands = append(cands, evict.Candidate{
				Unit:       uint64(b),
				LastAccess: bs.lastAccess,
				Score:      d.ctrs.Count(uint64(b)),
				Dirty:      bs.dirty,
				Full:       true,
				Pinned:     recent,
			})
			nums = append(nums, b)
			owners = append(owners, cs)
		}
	}
	d.candScratch, d.numScratch, d.ownerScratch = cands, nums, owners
	return cands
}

// Evict applies the engine's choice: idx indexes the most recent
// collection, strict tells which pass chose it (for the selection
// metrics and the no-pinned-victim invariant).
func (h *evictionHost) Evict(idx int, strict bool) {
	d := h.d
	d.noteVictim(d.candScratch[idx], strict)
	if !h.blockMode {
		d.evictChunk(d.chunkScratch[idx])
		return
	}
	b, cs := d.numScratch[idx], d.ownerScratch[idx]
	bs := d.blockAt(b)
	bs.resident = false
	d.ctrs.NoteEviction(uint64(b))
	bs.everEvicted = true
	d.st.TLBShootdowns += d.gmmuTLB.invalidateRange(memunits.FirstPageOfBlock(b), memunits.PagesPerBlock)
	dirty := uint64(0)
	if bs.dirty {
		dirty = 1
		bs.dirty = false
		cs.dirtyBlocks--
	}
	cs.residentBlocks--
	cs.pf.Tree().MarkEmpty(int(b - cs.info.FirstBlock()))
	if o := d.o; o != nil {
		o.victimTrips.Observe(d.ctrs.RoundTrips(uint64(b)))
		o.tr.Emit(obs.Span{
			Name: "evict_block", Cat: "evict", TID: obs.TrackEvict,
			Start: uint64(d.eng.Now()), Value: 1,
		})
	}
	d.finishEviction(1, dirty)
}

// evictChunk evicts every resident block of the chunk, writing dirty
// data back over the device-to-host channel.
func (d *Driver) evictChunk(cs *chunkState) {
	first := cs.info.FirstBlock()
	var evictedBlocks, dirtyBlocks uint64
	for b := first; b < first+memunits.BlockNum(cs.info.Blocks()); b++ {
		bs := d.blockAt(b)
		if bs == nil || !bs.resident {
			continue
		}
		bs.resident = false
		d.ctrs.NoteEviction(uint64(b))
		bs.everEvicted = true
		evictedBlocks++
		if bs.dirty {
			dirtyBlocks++
			bs.dirty = false
		}
		d.st.TLBShootdowns += d.gmmuTLB.invalidateRange(memunits.FirstPageOfBlock(b), memunits.PagesPerBlock)
	}
	if evictedBlocks == 0 {
		panic("uvm: evicting chunk with no resident blocks")
	}
	cs.residentBlocks = 0
	cs.dirtyBlocks = 0
	// Rebuild tree occupancy: only pending (queued/in-flight) blocks
	// remain claimed.
	tree := cs.pf.Tree()
	tree.Clear()
	for b := first; b < first+memunits.BlockNum(cs.info.Blocks()); b++ {
		if bs := d.blockAt(b); bs != nil && bs.pending {
			tree.MarkOccupied(int(b - first))
		}
	}
	if o := d.o; o != nil {
		o.victimTrips.Observe(d.ctrs.MaxRoundTrips(uint64(first), uint64(cs.info.Blocks())))
		o.tr.Emit(obs.Span{
			Name: "evict_chunk", Cat: "evict", TID: obs.TrackEvict,
			Start: uint64(d.eng.Now()), Value: evictedBlocks,
		})
	}
	d.finishEviction(evictedBlocks, dirtyBlocks)
}

// finishEviction accounts for evicted blocks and schedules the dirty
// write-back on the device-to-host channel. The write-back completion
// re-drains the capacity-wait queue.
func (d *Driver) finishEviction(evictedBlocks, dirtyBlocks uint64) {
	d.st.EvictedPages += evictedBlocks * memunits.PagesPerBlock
	d.mem.Release(evictedBlocks * memunits.PagesPerBlock)
	if dirtyBlocks > 0 {
		d.st.WrittenBackPages += dirtyBlocks * memunits.PagesPerBlock
		d.wbInFlight++
		d.link.Transfer(interconnect.DeviceToHost, dirtyBlocks*memunits.BlockSize, d.drainFn)
	}
}
