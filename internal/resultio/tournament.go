package resultio

import (
	"encoding/json"
	"fmt"
	"io"

	"uvmsim/internal/satmath"
)

// TournamentFormatVersion identifies the tournament-suite schema; bump
// on incompatible changes.
const TournamentFormatVersion = 1

// TournamentEntry is one migration planner's aggregate outcome over the
// tournament's workload matrix.
type TournamentEntry struct {
	// Name is the entry's leaderboard identity (e.g.
	// "planner=thrash-guard").
	Name string `json:"name"`
	// Planner is the mm registry name of the planner (empty = the
	// built-in default).
	Planner string `json:"planner,omitempty"`
	// TotalSimCycles sums simulated cycles over every workload — the
	// leaderboard metric, deterministic and machine-independent.
	TotalSimCycles uint64 `json:"totalSimCycles"`
	// WorkloadCycles holds the per-workload simulated cycles, aligned
	// with the suite's Workloads slice.
	WorkloadCycles []uint64 `json:"workloadCycles"`
	// Aggregate fault-path counters over the matrix.
	FarFaults      uint64 `json:"farFaults"`
	ThrashedPages  uint64 `json:"thrashedPages"`
	RemoteAccesses uint64 `json:"remoteAccesses"`
}

// TournamentSuite is an archived tournament leaderboard: every entered
// migration planner ranked by total simulated cycles over
// the same workload matrix. Like BenchSuite it carries enough context
// (scale, oversubscription, workload subset) to judge comparability.
type TournamentSuite struct {
	Version        int     `json:"version"`
	GoVersion      string  `json:"goVersion"`
	Scale          float64 `json:"scale"`
	OversubPercent uint64  `json:"oversubPercent"`
	// Workloads is the matrix's workload set, in column order.
	Workloads []string `json:"workloads"`
	// Entries is the leaderboard, best (lowest total cycles) first,
	// equal totals in name order.
	Entries []TournamentEntry `json:"entries"`
}

// WriteTournamentSuite emits the suite as indented JSON without
// mutating the caller's struct (an unset Version is defaulted on a
// copy).
func WriteTournamentSuite(w io.Writer, s *TournamentSuite) error {
	cp := *s
	if cp.Version == 0 {
		cp.Version = TournamentFormatVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&cp)
}

// ReadTournamentSuite parses and validates one suite. It accepts only
// leaderboards the tournament can produce: distinct names, one cycle
// count per workload summing (saturating) to the entry's total, and
// entries ranked by ascending total with ties in name order.
func ReadTournamentSuite(r io.Reader) (*TournamentSuite, error) {
	var s TournamentSuite
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("resultio: %w", err)
	}
	if err := requireEOF(dec); err != nil {
		return nil, err
	}
	if s.Version != TournamentFormatVersion {
		return nil, fmt.Errorf("resultio: unsupported tournament suite version %d (want %d)", s.Version, TournamentFormatVersion)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("resultio: tournament suite has no workloads")
	}
	if len(s.Entries) == 0 {
		return nil, fmt.Errorf("resultio: tournament suite has no entries")
	}
	names := make(map[string]bool, len(s.Entries))
	for i, e := range s.Entries {
		if e.Name == "" {
			return nil, fmt.Errorf("resultio: tournament entry %d missing name", i)
		}
		if names[e.Name] {
			return nil, fmt.Errorf("resultio: duplicate tournament entry %q", e.Name)
		}
		names[e.Name] = true
		if len(e.WorkloadCycles) != len(s.Workloads) {
			return nil, fmt.Errorf("resultio: tournament entry %q has %d workload cycles for %d workloads",
				e.Name, len(e.WorkloadCycles), len(s.Workloads))
		}
		if i > 0 {
			prev := s.Entries[i-1]
			if prev.TotalSimCycles > e.TotalSimCycles ||
				prev.TotalSimCycles == e.TotalSimCycles && prev.Name > e.Name {
				return nil, fmt.Errorf("resultio: tournament entries not in leaderboard order at %q", e.Name)
			}
		}
	}
	for _, e := range s.Entries {
		var sum uint64
		for _, c := range e.WorkloadCycles {
			sum = satmath.Add(sum, c)
		}
		if sum != e.TotalSimCycles {
			return nil, fmt.Errorf("resultio: tournament entry %q total %d is not its workload sum %d",
				e.Name, e.TotalSimCycles, sum)
		}
	}
	return &s, nil
}
