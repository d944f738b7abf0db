package sim

import "testing"

// TestEngineSteadyStateZeroAllocs asserts the hot-path contract of the
// queue overhaul: once the heap slice, ring and slot arena have reached
// their high-water capacity, scheduling and dispatch perform zero heap
// allocations. (The event closures themselves are allocated by the
// caller; here a single prebound closure is reused.)
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	var fired int
	fn := func() { fired++ }

	// Warm the arena and heap capacity.
	for i := 0; i < 4096; i++ {
		e.After(Cycle(i%97), fn)
	}
	e.Run()

	const batch = 1024
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			e.After(Cycle(i%97), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocated %.1f times per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}

// TestEngineSameCycleZeroAllocs exercises the same-cycle ring path under
// AllocsPerRun: events rescheduling at the current cycle must not
// allocate either.
func TestEngineSameCycleZeroAllocs(t *testing.T) {
	e := NewEngine()
	var depth int
	var chain func()
	chain = func() {
		if depth > 0 {
			depth--
			e.After(0, chain)
		}
	}
	// Warm.
	depth = 256
	e.After(1, chain)
	e.Run()

	allocs := testing.AllocsPerRun(100, func() {
		depth = 128
		e.After(1, chain)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("same-cycle ring path allocated %.1f times per run, want 0", allocs)
	}
}
