package resultio

import (
	"bytes"
	"strings"
	"testing"

	"uvmsim/internal/satmath"
)

// FuzzReadTournamentSuite hardens the leaderboard reader against
// arbitrary input: it must never panic, and every suite it accepts must
// be one the tournament could have produced — supported version, at
// least one workload and entry, distinct non-empty names, one cycle
// count per workload summing (saturating) to the entry total, ascending
// totals with ties in name order — and must survive a write/read round
// trip unchanged.
func FuzzReadTournamentSuite(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := ReadTournamentSuite(strings.NewReader(doc))
		if err != nil {
			return
		}
		if s.Version != TournamentFormatVersion || len(s.Workloads) == 0 || len(s.Entries) == 0 {
			t.Fatalf("accepted suite with version %d, %d workloads, %d entries", s.Version, len(s.Workloads), len(s.Entries))
		}
		names := map[string]bool{}
		for i, e := range s.Entries {
			if e.Name == "" || names[e.Name] {
				t.Fatalf("entry %d: empty or duplicate name %q", i, e.Name)
			}
			names[e.Name] = true
			if len(e.WorkloadCycles) != len(s.Workloads) {
				t.Fatalf("entry %q: %d workload cycles for %d workloads", e.Name, len(e.WorkloadCycles), len(s.Workloads))
			}
			var sum uint64
			for _, c := range e.WorkloadCycles {
				sum = satmath.Add(sum, c)
			}
			if sum != e.TotalSimCycles {
				t.Fatalf("entry %q: total %d, workload sum %d", e.Name, e.TotalSimCycles, sum)
			}
			if i > 0 {
				p := s.Entries[i-1]
				if p.TotalSimCycles > e.TotalSimCycles || p.TotalSimCycles == e.TotalSimCycles && p.Name >= e.Name {
					t.Fatalf("entries %q and %q out of leaderboard order", p.Name, e.Name)
				}
			}
		}
		var first, second bytes.Buffer
		if err := WriteTournamentSuite(&first, s); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTournamentSuite(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted suite fails its own round trip: %v", err)
		}
		if err := WriteTournamentSuite(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the suite:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
