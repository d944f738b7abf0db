package mm

import (
	"sort"
	"testing"

	"uvmsim/internal/config"
)

// TestRegistryOutputIsStable pins the determinism contract the maporder
// analyzer enforces structurally: every registry output derived from the
// name-keyed maps — the sorted name listings and the "unknown name"
// error that embeds them — must be byte-identical across calls. Map
// iteration order changes per run and per iteration, so repeating the
// calls genuinely exercises the nondeterminism a missing sort would
// reintroduce.
func TestRegistryOutputIsStable(t *testing.T) {
	// Extra registrations so the maps have enough keys for an unsorted
	// iteration to be visibly unstable.
	reg := &registry[MigrationPlanner]{kind: "migration planner", def: newThresholdPlanner}
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega", "kappa", "nu"} {
		reg.register(name, newThresholdPlanner)
	}

	firstNames := reg.names()
	if !sort.StringsAreSorted(firstNames) {
		t.Fatalf("names() not sorted: %v", firstNames)
	}
	_, err := reg.build("nosuch", config.Default())
	if err == nil {
		t.Fatal("expected error for unknown name")
	}
	firstErr := err.Error()

	for i := 0; i < 100; i++ {
		if got := reg.names(); !equal(got, firstNames) {
			t.Fatalf("iteration %d: names() unstable:\n%v\nvs\n%v", i, got, firstNames)
		}
		_, err := reg.build("nosuch", config.Default())
		if err == nil || err.Error() != firstErr {
			t.Fatalf("iteration %d: unknown-name error unstable:\n%q\nvs\n%q", i, err, firstErr)
		}
	}
}

// TestPackageRegistriesSorted covers the package-level listings used in
// CLI error messages and reports.
func TestPackageRegistriesSorted(t *testing.T) {
	for name, names := range map[string]func() []string{
		"PlannerNames": PlannerNames,
		"EvictorNames": EvictorNames,
	} {
		if got := names(); !sort.StringsAreSorted(got) {
			t.Errorf("%s() not sorted: %v", name, got)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
