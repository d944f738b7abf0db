package gpu

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"uvmsim/internal/memunits"
)

// coalesced runs the coalescer on in and returns a copy of its sectors.
func coalesced(in Instr) []memunits.Addr {
	w := &warp{instr: in}
	(&GPU{}).coalesce(w)
	return slices.Clone(w.sectors[:w.nsec])
}

// runInstr builds the run form of an n-lane affine access.
func runInstr(base memunits.Addr, stride uint64, n int) Instr {
	return Instr{NumAddrs: n, Base: base, Stride: stride}
}

// laneInstr writes the same access as a lane list.
func laneInstr(base memunits.Addr, stride uint64, n int) Instr {
	in := Instr{NumAddrs: n}
	for i := 0; i < n; i++ {
		in.Addrs[i] = base + uint64(i)*stride
	}
	return in
}

// TestCoalesceRunMatchesLanes is the differential check of the run
// path: for seeded random (base, stride, lanes) the arithmetic sectors
// must equal what the masking pass makes of the same lanes written out.
func TestCoalesceRunMatchesLanes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	fixed := []uint64{4, 8, 12, 128, 129, 4096}
	for c := 0; c < 12000; c++ {
		var stride uint64
		switch r := rng.IntN(4); {
		case r < 2:
			stride = fixed[rng.IntN(len(fixed))]
		case r == 2:
			stride = 1 + rng.Uint64N(2*memunits.SectorSize)
		default:
			stride = 1 + rng.Uint64N(1<<20)
		}
		base := rng.Uint64N(1 << 48)
		n := 1 + rng.IntN(MaxLanes)
		got := coalesced(runInstr(base, stride, n))
		want := coalesced(laneInstr(base, stride, n))
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: base %#x stride %d lanes %d: run %#x, lanes %#x", c, base, stride, n, got, want)
		}
	}
}

// TestCoalesceRunFixedCases pins the run path's sectors at alignment
// edges: an unaligned base, and runs that cross a 4KB page and a 64KB
// block.
func TestCoalesceRunFixedCases(t *testing.T) {
	cases := []struct {
		name   string
		base   memunits.Addr
		stride uint64
		n      int
		want   []memunits.Addr
	}{
		{"aligned", 0x10000, 4, 32, []memunits.Addr{0x10000}},
		{"unaligned", 0x1007c, 4, 32, []memunits.Addr{0x10000, 0x10080}},
		{"partial", 0x10040, 4, 3, []memunits.Addr{0x10000}},
		{"page-crossing", 0x1fc0, 4, 32, []memunits.Addr{0x1f80, 0x2000}},
		{"block-crossing", 0xff80, 8, 32, []memunits.Addr{0xff80, 0x10000}},
		{"sector-stride-unaligned", 0x3f, 128, 3, []memunits.Addr{0x0, 0x80, 0x100}},
		{"wide-stride", 0xffff0, 4096, 3, []memunits.Addr{0xfff80, 0x100f80, 0x101f80}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := coalesced(runInstr(c.base, c.stride, c.n)); !slices.Equal(got, c.want) {
				t.Errorf("sectors %#x, want %#x", got, c.want)
			}
			if got := coalesced(laneInstr(c.base, c.stride, c.n)); !slices.Equal(got, c.want) {
				t.Errorf("lane-list sectors %#x, want %#x", got, c.want)
			}
		})
	}
}

// TestCoalesceRunWrapPanics: a run whose last lane wraps the address
// space is a generator bug, rejected like an over-wide lane count.
func TestCoalesceRunWrapPanics(t *testing.T) {
	for _, in := range []Instr{
		runInstr(math.MaxUint64-64, 4, 32),
		runInstr(0, 1<<62, 5),
		runInstr(1, math.MaxUint64, 2),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("run base %#x stride %#x lanes %d did not panic", in.Base, in.Stride, in.NumAddrs)
				}
			}()
			coalesced(in)
		}()
	}
	// The last byte of the address space is reachable.
	if got := coalesced(runInstr(math.MaxUint64-3, 4, 1)); len(got) != 1 {
		t.Fatalf("sectors %#x, want one", got)
	}
}

// chainProgram emits a run, then a lane list that writes only NumAddrs
// and Addrs, as a chained gather stage does.
type chainProgram struct{ pos int }

func (p *chainProgram) Next(in *Instr) bool {
	p.pos++
	switch p.pos {
	case 1:
		in.NumAddrs, in.Base, in.Stride = 32, 0x10000, 4
	case 2:
		in.NumAddrs = 2
		in.Addrs[0], in.Addrs[1] = 0x40000, 0x80000
	default:
		return false
	}
	return true
}

// TestLaneListAfterRunIsNotARun pins the GPU's side of the instruction
// contract: Stride is cleared before every Next call, so a lane list
// issued after a run in the same program never inherits the run.
func TestLaneListAfterRunIsNotARun(t *testing.T) {
	g, mem, _, _ := newGPU(testCfg())
	g.RunSync(Kernel{Name: "chain", CTAs: 1, WarpsPerCTA: 1, NewWarp: func(_, _ int) WarpProgram {
		return &chainProgram{}
	}})
	want := []memunits.Addr{0x10000, 0x40000, 0x80000}
	if !slices.Equal(mem.accesses, want) {
		t.Fatalf("accesses %#x, want %#x", mem.accesses, want)
	}
}
