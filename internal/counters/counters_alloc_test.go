package counters

import "testing"

// TestCounterUpdateZeroAllocs asserts the hot-path contract of the
// counter file: once the flat register slice has grown to cover the
// touched block range, Access and the batched AccessRun perform zero
// heap allocations — the only allocation in the package is the O(log n)
// doubling grow inside get, which warming removes.
func TestCounterUpdateZeroAllocs(t *testing.T) {
	f := New()
	const blocks = 512
	// Warm: touch the full range so get never grows again.
	for b := uint64(0); b < blocks; b++ {
		f.Access(b)
	}

	allocs := testing.AllocsPerRun(100, func() {
		for b := uint64(0); b < blocks; b++ {
			f.Access(b)
			f.AccessRun(b, 37)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Access/AccessRun allocated %.1f times per run, want 0", allocs)
	}
	if f.TotalAccesses() == 0 {
		t.Fatal("no accesses recorded")
	}
}

// TestAccessRunSaturationZeroAllocs drives the batched path through its
// per-increment saturation fallback (halving sweeps included): the slow
// path must stay allocation-free too, since it runs inside the same
// //sim:hotpath loop.
func TestAccessRunSaturationZeroAllocs(t *testing.T) {
	f := New()
	f.Access(0) // warm the slice
	allocs := testing.AllocsPerRun(100, func() {
		reg(f, 0).access = MaxAccess - 4
		f.AccessRun(0, 16) // crosses saturation, forces a halving sweep
	})
	if allocs != 0 {
		t.Fatalf("saturating AccessRun allocated %.1f times per run, want 0", allocs)
	}
	if access, _ := f.Halvings(); access == 0 {
		t.Fatal("saturation fallback never fired")
	}
}
