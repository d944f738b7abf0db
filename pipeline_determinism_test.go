package uvmsim

import (
	"fmt"
	"strings"
	"testing"

	"uvmsim/internal/mm"
)

// TestPipelineCombinationsDeterministic is the determinism property of
// the pipeline seams: EVERY registered planner x prefetcher-kind
// combination, run twice, must produce byte-identical results — same
// simulated cycles, same fault counts, same spans. The planners are
// enumerated from the mm registry, so a newly registered planner is
// property-tested the moment it exists. CI runs this under -race.
func TestPipelineCombinationsDeterministic(t *testing.T) {
	for _, planner := range mm.PlannerNames() {
		for _, pf := range []PrefetcherKind{PrefetchNone, PrefetchSequential, PrefetchTree} {
			t.Run(planner+"/"+strings.ToLower(pf.String()), func(t *testing.T) {
				run := func() *Result {
					cfg := DefaultConfig()
					cfg.Penalty = 8
					cfg.Prefetcher = pf
					cfg.MMPipeline.Planner = planner
					return RunWorkload("ra", 0.2, 125, PolicyAdaptive, cfg)
				}
				a, b := run(), run()
				if a.Counters != b.Counters {
					t.Fatalf("counters differ across identical runs:\n%+v\n%+v", a.Counters, b.Counters)
				}
				if len(a.Spans) != len(b.Spans) {
					t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
				}
				for i := range a.Spans {
					if a.Spans[i] != b.Spans[i] {
						t.Fatalf("span %d differs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
					}
				}
				if a.Runtime() == 0 || a.Counters.FarFaults == 0 {
					t.Fatalf("combination did no observable work: %+v", a.Counters)
				}
			})
		}
	}
}

// TestPipelineDeterministicInCluster repeats the determinism property
// for the thrash-guard planner inside a parallel multi-GPU cluster:
// with ClusterWorkers=2 the node engines drain on concurrent worker
// threads, and each driver's pipeline must stay isolated — any
// cross-driver sharing shows up as a counter diff here (and as a data
// race under -race).
func TestPipelineDeterministicInCluster(t *testing.T) {
	run := func(workers int) string {
		cfg := DefaultConfig()
		cfg.Penalty = 8
		cfg.ClusterWorkers = workers
		cfg.MMPipeline.Planner = "thrash-guard"
		res := RunCluster("ra", 0.2, 2, 125, PolicyAdaptive, cfg)
		return fmt.Sprintf("%d %+v", res.Cycles, res.PerGPU)
	}
	parallel := run(2)
	if again := run(2); again != parallel {
		t.Fatalf("parallel cluster runs differ:\n%s\n%s", parallel, again)
	}
	// The parallel path must also agree with the sequential path — the
	// cluster's standing byte-identical equivalence claim.
	if sequential := run(0); sequential != parallel {
		t.Fatalf("sequential and parallel cluster runs differ:\n%s\n%s", sequential, parallel)
	}
}
