package workloads

import (
	"math/rand/v2"
	"testing"
)

// TestNextActiveMatchesBitLoop checks the word-at-a-time frontier scan
// against a bit-by-bit loop over random bitmaps and unaligned ranges.
func TestNextActiveMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(700)
		active := make([]uint64, (n+63)/64)
		// Vary the density from nearly empty to nearly full.
		density := rng.Float64()
		for v := 0; v < n; v++ {
			if rng.Float64() < density*density {
				active[v/64] |= 1 << (uint(v) % 64)
			}
		}
		p := &maskedCSRProgram{active: active}
		for q := 0; q < 50; q++ {
			from := rng.IntN(n + 1)
			to := from + rng.IntN(n-from+1)
			want := to
			for v := from; v < to; v++ {
				if active[v/64]&(1<<(uint(v)%64)) != 0 {
					want = v
					break
				}
			}
			if got := p.nextActive(from, to); got != want {
				t.Fatalf("n=%d nextActive(%d, %d) = %d, want %d", n, from, to, got, want)
			}
		}
	}
}
