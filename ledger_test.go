package uvmsim

import (
	"slices"
	"testing"

	"uvmsim/internal/cxl"
)

// ledgerRow pins the deterministic simulated-cycle figures of one run.
// The simulator is bit-for-bit deterministic, so every figure is
// compared exactly: an intentional behaviour change edits the row's
// want to the got value the failure prints.
type ledgerRow struct {
	name string
	// long marks a row that costs seconds: it is skipped under -short
	// and under the race detector, and CI runs it in its own step.
	long bool
	run  func(t *testing.T) []uint64
	want []uint64
}

// fig67Row totals the Fig. 6/7 sweep's simulated cycles.
func fig67Row(scale float64, workloads ...string) func(*testing.T) []uint64 {
	return func(*testing.T) []uint64 {
		_, _, cycles := Fig6And7Cycles(ExperimentOptions{Scale: scale, Workloads: workloads})
		return []uint64{cycles}
	}
}

// clusterRow runs a 4-GPU ra cluster at scale 0.5 under Adaptive at 125%
// oversubscription, sequentially and on two coordinator workers; the
// two makespans must both equal the pinned one.
func clusterRow(*testing.T) []uint64 {
	const gpus = 4
	w := BuildWorkload("ra", 0.5)
	var makespans []uint64
	for _, workers := range []int{0, 2} {
		cfg := DefaultConfig().WithPolicy(PolicyAdaptive).WithOversubscription(w.WorkingSet()/gpus, 125)
		cfg.ClusterWorkers = workers
		makespans = append(makespans, NewCluster(w, cfg, gpus).Run().Cycles)
	}
	return makespans
}

// coloRow runs the canonical co-location mix — an irregular graph pair
// sharing GPU 0 and a regular tenant alone on GPU 1, over a 64 MiB CXL
// pool — under each pool policy, returning cycles and checksum per
// policy. It also checks the co-location headline: counter-arbitrated
// replication beats naive migrate-on-touch.
func coloRow(t *testing.T) []uint64 {
	tenants, err := cxl.ParseTenants("bfs:0:1,sssp:0:0,backprop:1:1", 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	cycles := make(map[string]uint64)
	for _, policy := range []string{"cxl-migrate", "cxl-repl", "pool-remote"} {
		cfg := DefaultConfig()
		cfg.CXLPoolBytes = 64 << 20
		cfg.PoolPolicy = policy
		s, err := cxl.NewScenario(cxl.ScenarioConfig{Cfg: cfg, GPUs: 2, Tenants: tenants, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		cycles[policy] = r.SimCycles
		got = append(got, r.SimCycles, r.Checksum)
	}
	if repl, naive := cycles["cxl-repl"], cycles["cxl-migrate"]; repl >= naive {
		t.Errorf("cxl-repl %d cycles not better than cxl-migrate %d", repl, naive)
	}
	return got
}

// TestCycleLedger is the repo's behaviour-drift gate: the simulated
// cycles (and, for co-location, checksums) of the runs the README
// headlines. Host time is perfbench's concern; these figures are
// machine-independent.
func TestCycleLedger(t *testing.T) {
	rows := []ledgerRow{
		{name: "fig67-scale0.1-bfs-sssp", run: fig67Row(0.1, "bfs", "sssp"), want: []uint64{93224877}},
		{name: "fig67-scale1.0", long: true, run: fig67Row(1.0), want: []uint64{1011142260}},
		{name: "cluster-ra-4gpu-scale0.5", run: clusterRow, want: []uint64{6800942, 6800942}},
		// Cycles and checksum for cxl-migrate, cxl-repl, pool-remote.
		{name: "colo-canonical-mix", run: coloRow, want: []uint64{
			14728907, 6796852670599056594,
			3979279, 17109801806181445802,
			475668, 5026415844594431124,
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.long && (testing.Short() || raceEnabled) {
				t.Skip("scale-1.0 sweep: skipped under -short and -race")
			}
			if got := row.run(t); !slices.Equal(got, row.want) {
				t.Errorf("got %v, want %v", got, row.want)
			}
		})
	}
}
