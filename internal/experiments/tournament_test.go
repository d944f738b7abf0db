package experiments

import (
	"strings"
	"testing"

	"uvmsim/internal/resultio"
)

// smallTournament is the cheapest meaningful tournament: two planners
// over two workloads at a tiny scale.
func smallTournament() *TournamentResult {
	return Tournament(TournamentOptions{
		Options:  Options{Scale: 0.05, Workloads: []string{"bfs", "ra"}},
		Planners: []string{"threshold", "thrash-guard"},
	})
}

func TestTournamentLeaderboardShape(t *testing.T) {
	r := smallTournament()
	if len(r.Entries) != 2 {
		t.Fatalf("want 2 entries, got %d", len(r.Entries))
	}
	if r.OversubPercent != 125 || r.Scale != 0.05 {
		t.Fatalf("defaults not applied: %+v", r)
	}
	for i, e := range r.Entries {
		if len(e.WorkloadCycles) != len(r.Workloads) {
			t.Fatalf("entry %d has %d workload cycles for %d workloads", i, len(e.WorkloadCycles), len(r.Workloads))
		}
		var sum uint64
		for _, c := range e.WorkloadCycles {
			if c == 0 {
				t.Fatalf("entry %q has a zero-cycle workload", e.Name())
			}
			sum += c
		}
		if sum != e.TotalCycles {
			t.Fatalf("entry %q total %d != workload sum %d", e.Name(), e.TotalCycles, sum)
		}
		if i > 0 && r.Entries[i-1].TotalCycles > e.TotalCycles {
			t.Fatalf("leaderboard not sorted at entry %d", i)
		}
	}
}

// TestTournamentDeterministic pins the leaderboard contract the
// committed BENCH_tournament.json relies on: back-to-back tournaments
// (including a parallel sweep) must produce identical CSVs byte for
// byte.
func TestTournamentDeterministic(t *testing.T) {
	a := smallTournament().CSV()
	b := Tournament(TournamentOptions{
		Options:  Options{Scale: 0.05, Workloads: []string{"bfs", "ra"}, Workers: 4},
		Planners: []string{"threshold", "thrash-guard"},
	}).CSV()
	if a != b {
		t.Fatalf("tournament CSVs differ across runs:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestTournamentThrashGuardBeatsStaticAdaptive is the claim that keeps
// the planner seam: under real oversubscription pressure, thrash-guard
// must beat the paper's static Adaptive threshold scheme on total
// simulated cycles for the irregular workloads (ra, sssp). Scale 0.3
// because WithOversubscription's 2-chunk device-memory floor erases
// eviction pressure at smaller scales (see DESIGN.md §13).
func TestTournamentThrashGuardBeatsStaticAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tournament at scale 0.3")
	}
	r := Tournament(TournamentOptions{
		Options:  Options{Scale: 0.3, Workloads: []string{"ra", "sssp"}},
		Planners: []string{"threshold", "thrash-guard"},
	})
	byName := map[string]TournamentEntry{}
	for _, e := range r.Entries {
		byName[e.Planner] = e
	}
	guard, static := byName["thrash-guard"], byName["threshold"]
	if guard.TotalCycles >= static.TotalCycles {
		t.Fatalf("thrash-guard (%d cycles) does not beat static threshold (%d cycles)",
			guard.TotalCycles, static.TotalCycles)
	}
}

func TestTournamentTableAndCSV(t *testing.T) {
	r := smallTournament()
	tab := r.Table()
	wantCols := len(r.Workloads) + 1
	if len(tab.Columns) != wantCols || tab.Columns[wantCols-1] != "total" {
		t.Fatalf("table columns = %v", tab.Columns)
	}
	rendered := tab.Format()
	for _, e := range r.Entries {
		if !strings.Contains(rendered, e.Name()) {
			t.Fatalf("table missing entry %q:\n%s", e.Name(), rendered)
		}
	}
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(r.Entries) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(r.Entries), csv)
	}
	if !strings.HasPrefix(lines[0], "rank,combination,bfs,ra,total") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") {
		t.Fatalf("first data row not rank 1: %q", lines[1])
	}
}

func TestTournamentSuiteConversionValidates(t *testing.T) {
	s := smallTournament().Suite()
	s.GoVersion = "go-test"
	var buf strings.Builder
	if err := resultio.WriteTournamentSuite(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := resultio.ReadTournamentSuite(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("suite produced by Tournament fails its own reader: %v", err)
	}
}
