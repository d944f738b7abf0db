package resultio

import (
	"bytes"
	"io"
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
		roundTrip(t, s, WriteTournamentSuite, ReadTournamentSuite)
	})
}

// roundTrip writes an accepted document, reads it back and writes it
// again: the reader must accept its own writer's output, and the two
// encodings must be byte-identical.
func roundTrip[T any](t *testing.T, v *T, write func(io.Writer, *T) error, read func(io.Reader) (*T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := write(&first, v); err != nil {
		t.Fatal(err)
	}
	again, err := read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("accepted document fails its own round trip: %v", err)
	}
	if err := write(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip changed the document:\n%s\n%s", first.Bytes(), second.Bytes())
	}
}

// FuzzReadCellEntry hardens the sweep-cell cache-entry reader (simd
// loads these from its cache directory): it must never panic, every
// entry it accepts carries a key and a supported version, and accepted
// entries survive a write/read round trip unchanged.
func FuzzReadCellEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		e, err := ReadCellEntry(strings.NewReader(doc))
		if err != nil {
			return
		}
		if e.Version != CellFormatVersion || e.Key == "" || e.Record.Version != FormatVersion {
			t.Fatalf("accepted entry with version %d, key %q, record version %d", e.Version, e.Key, e.Record.Version)
		}
		roundTrip(t, e, WriteCellEntry, ReadCellEntry)
	})
}

// FuzzReadCXLEntry is FuzzReadCellEntry for co-location cache entries:
// no panics, accepted entries are named, keyed, carry one tenant result
// per tenant, and survive a write/read round trip unchanged.
func FuzzReadCXLEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		e, err := ReadCXLEntry(strings.NewReader(doc))
		if err != nil {
			return
		}
		sc := &e.Scenario
		if e.Version != CXLFormatVersion || e.Key == "" || sc.Name == "" || len(sc.Result.Tenants) != len(sc.Tenants) {
			t.Fatalf("accepted entry with version %d, key %q, name %q, %d tenant results for %d tenants",
				e.Version, e.Key, sc.Name, len(sc.Result.Tenants), len(sc.Tenants))
		}
		roundTrip(t, e, WriteCXLEntry, ReadCXLEntry)
	})
}
