package uvmsim

import (
	"slices"
	"testing"
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

// extrasRow runs the two extra workloads, spatter and pointerchase, at
// scale 0.1 and 125% oversubscription under Disabled and then Adaptive.
// spatter chains a dense index stream into a gather within one warp, so
// it is where an instruction-form mix-up between a program's stages
// shows.
func extrasRow(*testing.T) []uint64 {
	var got []uint64
	for _, name := range []string{"spatter", "pointerchase"} {
		for _, pol := range []MigrationPolicy{PolicyDisabled, PolicyAdaptive} {
			got = append(got, RunWorkload(name, 0.1, 125, pol, DefaultConfig()).Runtime())
		}
	}
	return got
}

// thrashRow runs ra at scale 2 and 150% oversubscription with p = 8
// under each policy, returning runtime, evicted pages and written-back
// pages per policy. It is the eviction- and write-back-heavy cell: the
// LFU chunk scores and dirty flags decide every victim.
func thrashRow(*testing.T) []uint64 {
	cfg := DefaultConfig()
	cfg.Penalty = 8
	var got []uint64
	for _, pol := range Policies() {
		r := RunWorkload("ra", 2, 150, pol, cfg)
		got = append(got, r.Runtime(), r.Counters.EvictedPages, r.Counters.WrittenBackPages)
	}
	return got
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

// TestCycleLedger is the repo's behaviour-drift gate: the simulated
// cycles of the runs the README headlines. Host time is perfbench's
// concern; these figures are machine-independent.
func TestCycleLedger(t *testing.T) {
	rows := []ledgerRow{
		{name: "fig67-scale0.1-bfs-sssp", run: fig67Row(0.1, "bfs", "sssp"), want: []uint64{93224877}},
		{name: "fig67-scale1.0", long: true, run: fig67Row(1.0), want: []uint64{1011142260}},
		// spatter Disabled, Adaptive; pointerchase Disabled, Adaptive.
		{name: "extras-scale0.1", run: extrasRow, want: []uint64{424844, 424781, 285539, 285539}},
		// Runtime, evicted and written-back pages for Disabled, Always,
		// Oversub, Adaptive.
		{name: "thrash-ra-scale2-150", run: thrashRow, want: []uint64{
			196264878, 497328, 467840,
			192646360, 487424, 459104,
			196030362, 496816, 467008,
			26680551, 53424, 48912,
		}},
		{name: "cluster-ra-4gpu-scale0.5", run: clusterRow, want: []uint64{6800942, 6800942}},
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
