package counters

import (
	"testing"
	"testing/quick"

	"uvmsim/internal/memunits"
)

func TestFieldWidths(t *testing.T) {
	if AccessBits+RoundTripBits != 32 {
		t.Fatalf("register is %d bits, want 32", AccessBits+RoundTripBits)
	}
	if MaxAccess != 1<<27-1 {
		t.Fatalf("MaxAccess = %d", MaxAccess)
	}
	if MaxRoundTrip != 31 {
		t.Fatalf("MaxRoundTrip = %d", MaxRoundTrip)
	}
}

func TestAccessCounting(t *testing.T) {
	f := New()
	for i := 1; i <= 5; i++ {
		if got := f.Access(7); got != uint64(i) {
			t.Fatalf("Access #%d returned %d", i, got)
		}
	}
	if f.Count(7) != 5 {
		t.Fatalf("Count = %d, want 5", f.Count(7))
	}
	if f.Count(8) != 0 {
		t.Fatal("untouched block has nonzero count")
	}
	if f.TotalAccesses() != 5 {
		t.Fatalf("TotalAccesses = %d, want 5", f.TotalAccesses())
	}
}

func TestRoundTrips(t *testing.T) {
	f := New()
	f.NoteEviction(3)
	f.NoteEviction(3)
	if f.RoundTrips(3) != 2 {
		t.Fatalf("RoundTrips = %d, want 2", f.RoundTrips(3))
	}
	if f.RoundTrips(4) != 0 {
		t.Fatal("untouched block has round trips")
	}
}

func TestAccessSaturationHalvesAll(t *testing.T) {
	f := New()
	// Force block 1 to the cap, give block 2 a known count.
	reg(f, 1).access = MaxAccess
	reg(f, 2).access = 100
	f.Access(1) // triggers halving, then increments
	if got := f.Count(1); got != MaxAccess/2+1 {
		t.Fatalf("saturated block count = %d, want %d", got, MaxAccess/2+1)
	}
	if got := f.Count(2); got != 50 {
		t.Fatalf("bystander block count = %d, want 50 (halved)", got)
	}
	a, tr := f.Halvings()
	if a != 1 || tr != 0 {
		t.Fatalf("halvings = %d,%d want 1,0", a, tr)
	}
}

func TestTripSaturationHalvesAll(t *testing.T) {
	f := New()
	reg(f, 1).trips = MaxRoundTrip
	reg(f, 2).trips = 10
	f.NoteEviction(1)
	if got := f.RoundTrips(1); got != MaxRoundTrip/2+1 {
		t.Fatalf("saturated trips = %d, want %d", got, MaxRoundTrip/2+1)
	}
	if got := f.RoundTrips(2); got != 5 {
		t.Fatalf("bystander trips = %d, want 5", got)
	}
}

// Property: halving preserves the relative order of access counts.
func TestHalvingPreservesOrderProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		a %= MaxAccess
		b %= MaxAccess
		cf := New()
		reg(cf, 1).access = a
		reg(cf, 2).access = b
		reg(cf, 3).access = MaxAccess
		cf.Access(3) // halve sweep
		x, y := cf.Count(1), cf.Count(2)
		switch {
		case a > b:
			return x >= y
		case a < b:
			return x <= y
		default:
			return x == y
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: access counts never exceed the 27-bit field and trips never
// exceed 5 bits, no matter the access sequence.
func TestFieldBoundsProperty(t *testing.T) {
	f := func(nAccess uint16, nEvict uint8) bool {
		cf := New()
		reg(cf, 0).access = MaxAccess - 3 // start near the cliff
		reg(cf, 0).trips = MaxRoundTrip - 1
		for i := 0; i < int(nAccess); i++ {
			cf.Access(0)
		}
		for i := 0; i < int(nEvict); i++ {
			cf.NoteEviction(0)
		}
		return cf.Count(0) <= MaxAccess && cf.RoundTrips(0) <= MaxRoundTrip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// naiveChunkSum is the reference the running chunk sums are checked
// against: the sum of Count over the chunk's 32 blocks.
func naiveChunkSum(f *File, chunk uint64) uint64 {
	var sum uint64
	first := memunits.FirstBlockOfChunk(chunk)
	for b := first; b < first+memunits.BlocksPerChunk; b++ {
		sum += f.Count(b)
	}
	return sum
}

// reg returns the block's register, creating it. Tests that set a count
// through it bypass the chunk sum.
func reg(f *File, block uint64) *entry {
	_, e := f.get(block)
	return e
}

// setCount puts the block's register at count and rebuilds its chunk's
// sum from the registers, the way a halving sweep does.
func setCount(f *File, block uint64, count uint32) {
	r, e := f.get(block)
	e.access = count
	r.sum = naiveChunkSum(f, memunits.ChunkOfBlock(block))
}

// Property: after every operation of a random Access, AccessRun and
// NoteEviction sequence over a few chunks, each chunk's score equals the
// naive sum of its blocks' counts. One operation kind starts a block
// just below the cap and runs past it, so halving sweeps fire in the
// middle of AccessRun's per-increment fallback.
func TestChunkScoreMatchesBlockSumProperty(t *testing.T) {
	const chunks = 3
	midRunHalvings := 0
	prop := func(ops []uint32) bool {
		f := New()
		for _, op := range ops {
			b := uint64(op>>8) % (chunks * memunits.BlocksPerChunk)
			k := uint64(op>>4&0xf) + 2
			switch op % 4 {
			case 0:
				f.Access(b)
			case 1:
				f.AccessRun(b, k)
			case 2:
				f.NoteEviction(b)
			case 3:
				// The cap is reached after k/2 increments of k.
				setCount(f, b, uint32(MaxAccess-k/2))
				before, _ := f.Halvings()
				f.AccessRun(b, k)
				if after, _ := f.Halvings(); after != before+1 {
					t.Errorf("AccessRun(%d) from the cap: %d halvings, want 1", k, after-before)
					return false
				}
				midRunHalvings++
			}
			for c := uint64(0); c <= chunks; c++ {
				if got, want := f.ChunkScore(c), naiveChunkSum(f, c); got != want {
					t.Errorf("op %#x: chunk %d score %d, block sum %d", op, c, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if midRunHalvings == 0 {
		t.Fatal("no halving sweep fired mid-AccessRun")
	}
}

func TestMaxRoundTrips(t *testing.T) {
	f := New()
	reg(f, 20).trips = 2
	reg(f, 22).trips = 7
	if got := f.MaxRoundTrips(20, 4); got != 7 {
		t.Fatalf("MaxRoundTrips = %d, want 7", got)
	}
	if got := f.MaxRoundTrips(30, 4); got != 0 {
		t.Fatalf("MaxRoundTrips over empty range = %d, want 0", got)
	}
}

func TestTracked(t *testing.T) {
	f := New()
	f.Access(1)
	f.Access(2)
	f.Access(1)
	if f.Tracked() != 2 {
		t.Fatalf("Tracked = %d, want 2", f.Tracked())
	}
}
