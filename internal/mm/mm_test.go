package mm

import (
	"sort"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/memunits"
	"uvmsim/internal/policy"
)

func TestDefaultsMatchConfiguration(t *testing.T) {
	cfg := config.Default()
	p, err := NewPlanner("", cfg)
	if err != nil || p.Name() != "threshold" {
		t.Fatalf("default planner = %v, %v; want threshold", p, err)
	}
	for _, rp := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		cfg.Replacement = rp
		e, err := NewEvictor("", cfg)
		if err != nil || e.Name() != rp.String() {
			t.Fatalf("default evictor under %v = %v, %v", rp, e, err)
		}
	}
}

func TestUnknownNamesError(t *testing.T) {
	cfg := config.Default()
	if _, err := NewPlanner("nope", cfg); err == nil || !strings.Contains(err.Error(), "unknown migration planner") {
		t.Fatalf("NewPlanner(nope) err = %v", err)
	}
	if _, err := NewEvictor("nope", cfg); err == nil {
		t.Fatal("NewEvictor(nope) succeeded")
	}
	// The error names the registered alternatives.
	_, err := NewEvictor("mru", cfg)
	for _, want := range EvictorNames() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
}

func TestNamesAreCaseInsensitiveAndTrimmed(t *testing.T) {
	cfg := config.Default()
	p, err := NewPlanner(" Thrash-Guard ", cfg)
	if err != nil || p.Name() != "thrash-guard" {
		t.Fatalf("NewPlanner(' Thrash-Guard ') = %v, %v", p, err)
	}
}

func TestNameListsAreSorted(t *testing.T) {
	for kind, names := range map[string][]string{
		"planner": PlannerNames(),
		"evictor": EvictorNames(),
	} {
		if len(names) == 0 {
			t.Fatalf("no registered %ss", kind)
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("%s names not sorted: %v", kind, names)
		}
	}
}

func TestBuildResolvesSpec(t *testing.T) {
	cfg := config.Default()
	cfg.MMPipeline = config.PipelineSpec{
		Planner: "thrash-guard",
		Evictor: "none",
	}
	pipe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := pipe.Planner.Name(); got != "thrash-guard" {
		t.Fatalf("planner = %q", got)
	}
	if got := pipe.Evictor.Name(); got != "none" {
		t.Fatalf("evictor = %q", got)
	}

	cfg.MMPipeline.Planner = "bogus"
	if _, err := Build(cfg); err == nil {
		t.Fatal("Build with unknown planner succeeded")
	}
}

func TestThresholdPlannerWriteMigrates(t *testing.T) {
	cfg := config.Default().WithPolicy(config.PolicyAlways)
	cfg.WriteMigrates = true
	cfg.StaticThreshold = 100 // only the write path can trigger below 100
	p, _ := NewPlanner("threshold", cfg)
	a := Access{Count: 1, Mem: policy.MemState{TotalPages: 100, AllocatedPages: 0}}
	if p.ShouldMigrate(a) {
		t.Fatal("read below threshold migrated")
	}
	a.Write = true
	if !p.ShouldMigrate(a) {
		t.Fatal("write did not migrate with WriteMigrates on")
	}
}

func TestThrashGuardPinsChronicThrashers(t *testing.T) {
	// The first-touch baseline migrates on every first access, so the
	// only reason the guard returns false is the round-trip bound.
	cfg := config.Default().WithPolicy(config.PolicyDisabled)
	inner, _ := NewPlanner("threshold", cfg)
	guard, _ := NewPlanner("thrash-guard", cfg)
	a := Access{Count: 1, Mem: policy.MemState{TotalPages: 100}}
	for r := uint64(0); r < ThrashGuardRoundTrips; r++ {
		a.RoundTrips = r
		if !guard.ShouldMigrate(a) {
			t.Fatalf("guard refused below the bound (r=%d)", r)
		}
	}
	a.RoundTrips = ThrashGuardRoundTrips
	if guard.ShouldMigrate(a) {
		t.Fatal("guard migrated at the bound")
	}
	if !inner.ShouldMigrate(a) {
		t.Fatal("inner planner refused — the guard case proves nothing")
	}
}

// Stage contract tests: every registered implementation must satisfy
// the same behavioural contract, checked table-driven over the registry
// so a new registration is tested the moment it exists.

// contractAccessSeq generates a fixed pseudo-random access sequence.
// The generator is self-contained so the sequence is identical on every
// run.
func contractAccessSeq(n int) []Access {
	s := uint64(0x123456789)
	next := func() uint64 { s ^= s << 13; s ^= s >> 7; s ^= s << 17; return s }
	seq := make([]Access, 0, n)
	for i := 0; i < n; i++ {
		seq = append(seq, Access{
			Block:      memunits.BlockNum(next() % 512),
			Write:      next()%4 == 0,
			Count:      next()%64 + 1,
			RoundTrips: next() % 6,
			Mem: policy.MemState{
				AllocatedPages: next() % 1000,
				TotalPages:     1000,
				Oversubscribed: next()%2 == 0,
			},
		})
	}
	return seq
}

func TestPlannerContractDeterministicReplay(t *testing.T) {
	// Two fresh instances of every registered planner fed the same
	// access sequence must make identical decisions — the planner-level
	// core of the repo's byte-identical determinism guarantee.
	cfg := config.Default().WithPolicy(config.PolicyAdaptive)
	seq := contractAccessSeq(5000)
	for _, name := range PlannerNames() {
		a, err := NewPlanner(name, cfg)
		if err != nil {
			t.Fatalf("NewPlanner(%s): %v", name, err)
		}
		b, _ := NewPlanner(name, cfg)
		if a.Name() != name {
			t.Fatalf("planner %q round-trips as %q", name, a.Name())
		}
		for i, acc := range seq {
			if a.ShouldMigrate(acc) != b.ShouldMigrate(acc) {
				t.Fatalf("planner %s diverged from its twin at access %d", name, i)
			}
		}
	}
}

// emptyHost is an EvictionHost with nothing evictable: the state of a
// driver whose resident units are all pinned or in flight.
type emptyHost struct{ evictions int }

func (h *emptyHost) ChunkCandidates(bool) []evict.Candidate { return nil }
func (h *emptyHost) BlockCandidates(bool) []evict.Candidate { return nil }
func (h *emptyHost) Evict(int, bool)                        { h.evictions++ }

func TestEvictorContractRefusesGracefullyWithoutCandidates(t *testing.T) {
	// Every engine must return false — not panic, not call Evict — when
	// both the strict and relaxed passes come up empty. The driver
	// relies on the false to demote the stalled migration to remote
	// access.
	for _, name := range EvictorNames() {
		for _, gran := range []uint64{memunits.ChunkSize, memunits.BlockSize} {
			cfg := config.Default()
			cfg.EvictionGranularity = gran
			e, err := NewEvictor(name, cfg)
			if err != nil {
				t.Fatalf("NewEvictor(%s): %v", name, err)
			}
			h := &emptyHost{}
			if e.EvictOne(h) {
				t.Fatalf("evictor %s (gran %d) claimed success with no candidates", name, gran)
			}
			if h.evictions != 0 {
				t.Fatalf("evictor %s (gran %d) called Evict with no candidates", name, gran)
			}
		}
	}
}
