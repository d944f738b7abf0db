package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"uvmsim/internal/config"
)

// KeyVersion identifies the cache-key derivation. Bump it whenever the
// canonical document below changes meaning — adding a Config field that
// affects results, changing the workload generators, or changing the
// simulator in any behaviour-visible way — so stale entries can never
// be returned for a semantically different cell.
const KeyVersion = 2

// keyDoc is the canonical document whose SHA-256 is the cell's
// content address. It is serialized with encoding/json, which emits
// struct fields in declaration order with deterministic number
// formatting, so equal cells always hash equally.
//
// The hashed Config is the *derived* per-cell configuration — after
// WithPolicy's replacement pairing and WithOversubscription's
// device-memory sizing — so two submissions that spell the same cell
// differently (say, different base DeviceMemBytes that derivation
// overwrites) share one entry. PipelineSpec and PolicySeed ride inside
// Config, covering the (Config, PipelineSpec, workload name+scale,
// seed) identity the cache is specified over; the seed is a replicate
// label that no simulator stage reads, so seed-distinct cells are
// distinct entries with identical results.
// OversubPercent is hashed even though it only reaches Config through
// the derived DeviceMemBytes: at tiny scales distinct percents can
// derive identical capacities (the two-unit floor), but the percent is
// recorded verbatim in the cell's result record, so cells differing
// only in percent must not share an entry.
type keyDoc struct {
	KeyVersion     int
	Workload       string
	Scale          float64
	OversubPercent uint64
	Config         config.Config
}

// CellKey returns the canonical content address for one cell: the
// hex-encoded SHA-256 of the canonical key document.
func CellKey(workload string, scale float64, oversubPercent uint64, derived config.Config) string {
	// ClusterWorkers selects the worker count of multi-GPU runs and
	// is ignored by the single-GPU cells the service executes; results
	// are identical for every value, so it must not split the key space.
	derived.ClusterWorkers = 0
	doc, err := json.Marshal(keyDoc{
		KeyVersion:     KeyVersion,
		Workload:       workload,
		Scale:          scale,
		OversubPercent: oversubPercent,
		Config:         derived,
	})
	if err != nil {
		// config.Config is a plain value struct; Marshal cannot fail.
		panic(fmt.Sprintf("serve: canonical key encoding failed: %v", err))
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}
