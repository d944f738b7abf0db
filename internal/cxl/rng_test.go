package cxl

import "testing"

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := newRNG(0)
	if r.Next() == 0 && r.Next() == 0 {
		t.Fatal("zero-seeded RNG is stuck at zero")
	}
	a, b := newRNG(0), newRNG(rngMixSeed)
	for i := 0; i < 10; i++ {
		if a.Next() != b.Next() {
			t.Fatal("zero seed does not remap to the documented constant")
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	newRNG(1).Intn(0)
}
