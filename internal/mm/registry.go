package mm

import (
	"fmt"
	"sort"
	"strings"

	"uvmsim/internal/config"
)

// Factory constructs one pipeline stage for a driver from its
// configuration. Factories must return a fresh instance per call, so a
// stateful stage is never shared between drivers.
type Factory[T any] func(cfg config.Config) (T, error)

// registry is one name-keyed stage namespace.
type registry[T any] struct {
	kind      string
	factories map[string]Factory[T]
	// def builds the stage when no name is given: the built-in
	// behaviour derived from the enum fields of the configuration.
	def Factory[T]
}

func (r *registry[T]) register(name string, f Factory[T]) {
	name = canon(name)
	if name == "" {
		panic(fmt.Sprintf("mm: empty %s name", r.kind))
	}
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("mm: duplicate %s %q", r.kind, name))
	}
	if r.factories == nil {
		r.factories = make(map[string]Factory[T])
	}
	r.factories[name] = f
}

func (r *registry[T]) build(name string, cfg config.Config) (T, error) {
	name = canon(name)
	if name == "" {
		return r.def(cfg)
	}
	f, ok := r.factories[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("mm: unknown %s %q (want one of %s)",
			r.kind, name, strings.Join(r.names(), ", "))
	}
	return f(cfg)
}

func (r *registry[T]) names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// canon normalizes a registry key: lower-case, trimmed.
func canon(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

var (
	planners = &registry[MigrationPlanner]{kind: "migration planner", def: newThresholdPlanner}
	evictors = &registry[EvictionEngine]{kind: "eviction engine", def: newConfiguredEvictor}
)

// RegisterPlanner adds a MigrationPlanner factory under name. Panics on
// duplicates; call from package init.
func RegisterPlanner(name string, f Factory[MigrationPlanner]) { planners.register(name, f) }

// RegisterEvictor adds an EvictionEngine factory under name.
func RegisterEvictor(name string, f Factory[EvictionEngine]) { evictors.register(name, f) }

// NewPlanner builds the named MigrationPlanner ("" = default).
func NewPlanner(name string, cfg config.Config) (MigrationPlanner, error) {
	return planners.build(name, cfg)
}

// NewEvictor builds the named EvictionEngine ("" = default).
func NewEvictor(name string, cfg config.Config) (EvictionEngine, error) {
	return evictors.build(name, cfg)
}

// PlannerNames lists the registered MigrationPlanner names, sorted.
func PlannerNames() []string { return planners.names() }

// EvictorNames lists the registered EvictionEngine names, sorted.
func EvictorNames() []string { return evictors.names() }
