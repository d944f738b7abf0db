// Package mm defines the pluggable policy seams of the UVM driver: two
// narrow, independently replaceable stages that together express the
// driver's migrate-or-remote and victim-selection decisions, plus a
// name-keyed registry so command-line tools, sweeps and experiments can
// select implementations by string.
//
// The stages mirror the life of a memory transaction that misses device
// memory:
//
//	MigrationPlanner  — migrate or serve remotely? (wraps policy.Decider)
//	EvictionEngine    — victim selection under capacity pressure (wraps
//	                    evict.Policy via an EvictionHost view of driver
//	                    state)
//
// Fault batching and per-chunk prefetch grouping are fixed driver
// mechanisms (the 45us batch accumulator and prefetch.Chunk of the
// configured kind), not seams. The built-in stages reproduce the
// paper's heuristics bit-for-bit; alternatives (a thrash-guard planner,
// a refusing evictor) register under their own names and drop in
// without touching the driver core.
//
// Stage instances are per driver: multi-GPU clusters build one Pipeline
// per GPU. The built-in stages are stateless, but the contract is
// per-driver ownership throughout.
package mm

import (
	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/memunits"
	"uvmsim/internal/policy"
)

// Access describes one host-resident block access for the planner: the
// block, the direction, its counter state and the device-memory state
// the threshold schemes depend on.
type Access struct {
	// Block is the 64KB basic block being accessed.
	Block memunits.BlockNum
	// Write reports the access direction.
	Write bool
	// Count is the block's access-counter value including this access.
	Count uint64
	// RoundTrips is the block's eviction round-trip count r.
	RoundTrips uint64
	// Mem is the device-memory occupancy snapshot.
	Mem policy.MemState
}

// MigrationPlanner decides, per access to a non-resident block, whether
// the block migrates to device memory or the access is served remotely
// (zero-copy) from host memory. Implementations must be deterministic
// functions of the Access sequence and their own configuration — never
// of wall clock or unseeded randomness.
type MigrationPlanner interface {
	// Name identifies the planner (registry key).
	Name() string
	// ShouldMigrate reports whether the access triggers a migration.
	ShouldMigrate(a Access) bool
}

// EvictionHost is the view of driver state an EvictionEngine works
// against: candidate enumeration and victim application. The driver
// implements it; engines never touch page tables directly.
//
// Protocol: collect candidates (as often as needed), then Evict exactly
// one of them by index. Any candidate slice is invalidated by the next
// host call. The chunk currently being migrated into is never listed.
type EvictionHost interface {
	// ChunkCandidates returns the resident 2MB chunks eligible for
	// eviction, ascending by chunk number. strict applies the standard
	// pinning rules (queued or in-flight migrations pin a chunk) and
	// the recency guard; relaxed (strict=false) pins only chunks with
	// blocks on the wire, guaranteeing forward progress.
	ChunkCandidates(strict bool) []evict.Candidate
	// BlockCandidates is the 64KB-granularity equivalent: every
	// resident basic block outside the destination chunk, ascending by
	// block number. strict applies the recency guard.
	BlockCandidates(strict bool) []evict.Candidate
	// Evict evicts the idx-th candidate of the most recent collection,
	// handling residency teardown, TLB shootdowns, accounting and dirty
	// write-back. strict tags which selection pass chose the victim
	// (observability and the no-pinned-victim invariant).
	Evict(idx int, strict bool)
}

// EvictionEngine frees device memory one eviction unit at a time.
type EvictionEngine interface {
	// Name identifies the engine. For the built-in engines this is the
	// replacement policy name ("LRU", "LFU"), which keys the
	// observability metrics.
	Name() string
	// EvictOne selects and evicts one unit via the host. It returns
	// false when no victim is available right now; the driver then
	// retries when in-flight work completes, or — if nothing is in
	// flight — demotes the stalled migration to remote access.
	EvictOne(h EvictionHost) bool
}

// Pipeline bundles one instance of every stage for one driver.
type Pipeline struct {
	Planner MigrationPlanner
	Evictor EvictionEngine
}

// Build resolves cfg.MMPipeline against the registry, returning a fresh
// per-driver Pipeline. Empty names select the built-in stages derived
// from cfg.Policy and cfg.Replacement, reproducing the pre-pipeline
// driver exactly.
func Build(cfg config.Config) (Pipeline, error) {
	var (
		p   Pipeline
		err error
	)
	if p.Planner, err = NewPlanner(cfg.MMPipeline.Planner, cfg); err != nil {
		return Pipeline{}, err
	}
	if p.Evictor, err = NewEvictor(cfg.MMPipeline.Evictor, cfg); err != nil {
		return Pipeline{}, err
	}
	return p, nil
}
