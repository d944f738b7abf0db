package resultio

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTournamentSuite() *TournamentSuite {
	return &TournamentSuite{
		Version:        TournamentFormatVersion,
		GoVersion:      "go1.23.0",
		Scale:          0.3,
		OversubPercent: 125,
		Workloads:      []string{"bfs", "ra"},
		Entries: []TournamentEntry{
			{
				Name: "planner=thrash-guard", Planner: "thrash-guard",
				TotalSimCycles: 100, WorkloadCycles: []uint64{40, 60},
				FarFaults: 7, ThrashedPages: 3, RemoteAccesses: 11,
			},
			{
				Name: "planner=threshold", Planner: "threshold",
				TotalSimCycles: 150, WorkloadCycles: []uint64{70, 80},
				FarFaults: 9, ThrashedPages: 5, RemoteAccesses: 13,
			},
		},
	}
}

func TestTournamentSuiteRoundTrip(t *testing.T) {
	want := sampleTournamentSuite()
	var buf bytes.Buffer
	if err := WriteTournamentSuite(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTournamentSuite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Scale != want.Scale ||
		got.OversubPercent != want.OversubPercent || len(got.Entries) != len(want.Entries) {
		t.Fatalf("round trip changed suite header: %+v", got)
	}
	for i := range want.Entries {
		w, g := want.Entries[i], got.Entries[i]
		if g.Name != w.Name || g.TotalSimCycles != w.TotalSimCycles ||
			g.FarFaults != w.FarFaults || g.ThrashedPages != w.ThrashedPages ||
			g.RemoteAccesses != w.RemoteAccesses || len(g.WorkloadCycles) != len(w.WorkloadCycles) {
			t.Fatalf("entry %d changed in round trip:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
}

func TestWriteTournamentSuiteDefaultsVersion(t *testing.T) {
	s := sampleTournamentSuite()
	s.Version = 0
	var buf bytes.Buffer
	if err := WriteTournamentSuite(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTournamentSuite(&buf); err != nil {
		t.Fatalf("version was not defaulted on write: %v", err)
	}
}

// TestReadTournamentSuiteRejectsMalformed exercises every validation
// branch: the reader must refuse anything that would silently corrupt a
// committed leaderboard comparison.
func TestReadTournamentSuiteRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*TournamentSuite)
		wantErr string
	}{
		{"future version", func(s *TournamentSuite) { s.Version = TournamentFormatVersion + 1 }, "version"},
		{"no workloads", func(s *TournamentSuite) { s.Workloads = nil }, "no workloads"},
		{"no entries", func(s *TournamentSuite) { s.Entries = nil }, "no entries"},
		{"missing name", func(s *TournamentSuite) { s.Entries[0].Name = "" }, "missing name"},
		{"misaligned workload cycles", func(s *TournamentSuite) {
			s.Entries[1].WorkloadCycles = []uint64{70}
		}, "workload cycles"},
		{"not in leaderboard order", func(s *TournamentSuite) {
			s.Entries[0].TotalSimCycles = 999
		}, "leaderboard order"},
		{"total not the workload sum", func(s *TournamentSuite) {
			s.Entries[0].TotalSimCycles = 101
		}, "workload sum"},
		{"duplicate name", func(s *TournamentSuite) {
			s.Entries[1].Name = s.Entries[0].Name
		}, "duplicate"},
		{"equal totals not in name order", func(s *TournamentSuite) {
			s.Entries[1].TotalSimCycles, s.Entries[1].WorkloadCycles = 100, []uint64{40, 60}
			s.Entries[0], s.Entries[1] = s.Entries[1], s.Entries[0]
		}, "leaderboard order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleTournamentSuite()
			tc.mutate(s)
			var buf bytes.Buffer
			if err := WriteTournamentSuite(&buf, s); err != nil {
				t.Fatal(err)
			}
			_, err := ReadTournamentSuite(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestReadTournamentSuiteRejectsUnknownFields(t *testing.T) {
	_, err := ReadTournamentSuite(strings.NewReader(
		`{"version":1,"workloads":["bfs"],"entries":[],"surprise":true}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}
