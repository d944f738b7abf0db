// Package serve turns the one-shot sweep CLIs into a long-running
// simulation service: an HTTP/JSON server (simd) that accepts sweep
// jobs — a config matrix crossed with a workload set — shards the
// resulting cells across a bounded worker pool built on sweep.Parallel,
// and memoizes every completed cell in a content-addressed result
// cache. Every simulation in this repository is single-threaded and
// deterministic, so a (Config, workload name+scale, seed) cell is
// perfectly cacheable: repeated or overlapping sweeps from concurrent
// clients are near-free cache hits with byte-identical payloads.
//
// The job-spec types here are the shared vocabulary: figures are
// expressible as submissions (internal/experiments FigureJob) and the
// CLIs are thin clients (Client).
package serve

import (
	"fmt"

	"uvmsim/internal/cliutil"
	"uvmsim/internal/config"
	"uvmsim/internal/satmath"
	"uvmsim/internal/workloads"
)

// JobRequest is one sweep submission: a config matrix (workloads x
// oversubscription points x policies x seeds) optionally extended with
// explicit cells for sweeps a rectangular matrix cannot express
// (threshold and penalty sensitivity columns). The matrix expands in
// deterministic order — workload-major, then oversubscription, policy,
// seed — followed by the explicit cells, so identical requests always
// produce the identical cell list (and therefore byte-identical result
// payloads). Every cell keeps its base's mm pipeline (MMPipeline).
type JobRequest struct {
	// Name is an optional client-side label echoed in status output; it
	// does not reach the result payload or any cache key.
	Name string `json:"name,omitempty"`
	// Scale is the workload scale factor shared by every cell
	// (0 = 1.0, the paper size).
	Scale float64 `json:"scale,omitempty"`

	// Matrix dimensions. A request may use the matrix, explicit Cells,
	// or both; the matrix is skipped when any dimension is empty after
	// defaulting (Workloads empty with no Cells is an error).
	Workloads       []string `json:"workloads,omitempty"`
	OversubPercents []uint64 `json:"oversubPercents,omitempty"`
	// Policies are migration-policy names (disabled/baseline, always,
	// oversub, adaptive); empty defaults to ["adaptive"].
	Policies []string `json:"policies,omitempty"`
	// Seeds are PolicySeed values crossed with the matrix; empty
	// defaults to the base config's seed. A seed is a replicate label in
	// the cell identity (and so in the cache key); no simulator stage
	// reads it, so cells differing only in seed simulate identically.
	Seeds []uint64 `json:"seeds,omitempty"`

	// Base is the base system configuration for matrix cells
	// (nil = config.Default()). Per-cell derivation applies the paper's
	// policy pairing and sizes device memory from the cell's workload
	// and oversubscription, exactly as the figure sweeps do.
	Base *config.Config `json:"base,omitempty"`

	// Cells are explicit extra cells appended after the matrix.
	Cells []CellSpec `json:"cells,omitempty"`
}

// CellSpec is one explicit simulation cell.
type CellSpec struct {
	Workload       string `json:"workload"`
	OversubPercent uint64 `json:"oversubPercent"`
	// Policy is the migration-policy name (empty = adaptive).
	Policy string `json:"policy,omitempty"`
	// Base overrides the job-level base configuration for this cell
	// (threshold/penalty sensitivity columns).
	Base *config.Config `json:"base,omitempty"`
}

// cell is one fully resolved unit of work.
type cell struct {
	workload string
	scale    float64
	pct      uint64
	policy   config.MigrationPolicy
	base     config.Config
}

// defaultOversubPercents is the matrix default: the paper's
// oversubscription point.
var defaultOversubPercents = []uint64{125}

// matrixDims returns the matrix dimensions after defaulting; the
// matrix is empty when Workloads is.
func (r *JobRequest) matrixDims(base config.Config) (pcts []uint64, policies []string, seeds []uint64) {
	pcts = r.OversubPercents
	if len(pcts) == 0 {
		pcts = defaultOversubPercents
	}
	policies = r.Policies
	if len(policies) == 0 {
		policies = []string{"adaptive"}
	}
	seeds = r.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{base.PolicySeed}
	}
	return pcts, policies, seeds
}

// baseConfig returns the job-level base configuration.
func (r *JobRequest) baseConfig() config.Config {
	if r.Base != nil {
		return *r.Base
	}
	return config.Default()
}

// cellCount returns the number of units the request expands to,
// computed from the list lengths alone (saturating, so an absurd
// cross-product cannot wrap to a small number).
func (r *JobRequest) cellCount() uint64 {
	var n uint64
	if len(r.Workloads) > 0 {
		pcts, policies, seeds := r.matrixDims(r.baseConfig())
		n = uint64(len(r.Workloads))
		for _, d := range []int{len(pcts), len(policies), len(seeds)} {
			n = satmath.Mul(n, uint64(d))
		}
	}
	return satmath.Add(n, uint64(len(r.Cells)))
}

// cells validates the request and expands it into its deterministic
// cell list.
func (r *JobRequest) cells() ([]cell, error) {
	scale := r.Scale
	if scale == 0 {
		scale = 1.0
	}
	if scale < 0 {
		return nil, fmt.Errorf("serve: scale %v must be positive", r.Scale)
	}
	base := r.baseConfig()

	var cells []cell
	if len(r.Workloads) > 0 {
		pcts, policies, seeds := r.matrixDims(base)
		for _, w := range r.Workloads {
			for _, pct := range pcts {
				for _, polName := range policies {
					for _, seed := range seeds {
						pol, err := cliutil.ParsePolicy(polName)
						if err != nil {
							return nil, fmt.Errorf("serve: %v", err)
						}
						b := base
						b.PolicySeed = seed
						c := cell{workload: w, scale: scale, pct: pct, policy: pol, base: b}
						if err := c.validate(); err != nil {
							return nil, err
						}
						cells = append(cells, c)
					}
				}
			}
		}
	}
	for i, spec := range r.Cells {
		polName := spec.Policy
		if polName == "" {
			polName = "adaptive"
		}
		pol, err := cliutil.ParsePolicy(polName)
		if err != nil {
			return nil, fmt.Errorf("serve: cell %d: %v", i, err)
		}
		b := base
		if spec.Base != nil {
			b = *spec.Base
		}
		c := cell{workload: spec.Workload, scale: scale, pct: spec.OversubPercent, policy: pol, base: b}
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("serve: cell %d: %v", i, err)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// expand validates the request and resolves it into its deterministic
// cell list. A request expanding to more than maxCells cells is
// rejected before any cell is materialized, so a small request naming
// a huge cross-product costs no memory.
func (r *JobRequest) expand(maxCells int) ([]cell, error) {
	if n := r.cellCount(); n > uint64(maxCells) {
		return nil, fmt.Errorf("serve: job expands to %d cells (limit %d)", n, maxCells)
	}
	cells, err := r.cells()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("serve: job expands to no cells (empty matrix and no explicit cells)")
	}
	return cells, nil
}

// validate checks the fields submit-time can check cheaply: the
// workload name and oversubscription point. Full config validation
// happens when the cell's simulator is constructed — a failure there
// aborts the job through sweep.Parallel's panic path and surfaces as a
// failed job, never a wedged pool.
func (c *cell) validate() error {
	if _, ok := workloads.Get(c.workload); !ok {
		return fmt.Errorf("serve: unknown workload %q", c.workload)
	}
	if c.pct == 0 {
		return fmt.Errorf("serve: workload %q: oversubscription percent must be positive", c.workload)
	}
	return nil
}
