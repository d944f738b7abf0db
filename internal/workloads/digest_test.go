package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"uvmsim/internal/gpu"
)

// streamDigest drains every warp program of every kernel of b and hashes
// each instruction's write flag, compute cycles, lane count and lane
// addresses with FNV-64a. Lanes are read through Instr.Addr, so a run
// and the same lanes written as a list hash alike.
func streamDigest(b *Built) uint64 {
	h := fnv.New64a()
	var buf []byte
	var in gpu.Instr
	for _, k := range b.Kernels {
		for cta := 0; cta < k.CTAs; cta++ {
			for w := 0; w < k.WarpsPerCTA; w++ {
				p := k.NewWarp(cta, w)
				for nextInstr(p, &in) {
					buf = buf[:0]
					if in.Write {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
					buf = binary.LittleEndian.AppendUint64(buf, in.Compute)
					buf = binary.LittleEndian.AppendUint64(buf, uint64(in.NumAddrs))
					for i := 0; i < in.NumAddrs; i++ {
						buf = binary.LittleEndian.AppendUint64(buf, in.Addr(i))
					}
					h.Write(buf)
				}
			}
		}
	}
	return h.Sum64()
}

// TestGeneratorStreamDigest pins the exact instruction stream of every
// workload at scale 0.05, independently of timing: a generator rewrite
// must emit the same addresses, lane counts, write flags and compute
// cycles, whichever instruction form it uses.
func TestGeneratorStreamDigest(t *testing.T) {
	want := map[string]uint64{
		"backprop":     0x878cbd2bb3e62f0c,
		"fdtd":         0x1cec2bcab5a2ab25,
		"hotspot":      0xc641b9348da54e57,
		"srad":         0x0fba035b0a9089b5,
		"bfs":          0x6a5594b350e7c21a,
		"nw":           0xf2e291bb88466e55,
		"ra":           0xa21a7a645d35d6dd,
		"sssp":         0x4db51e075487b71e,
		"spatter":      0xdbc9a251746e8dc4,
		"pointerchase": 0x131d9f5762871dc2,
	}
	for _, name := range AllNames() {
		t.Run(name, func(t *testing.T) {
			if got := streamDigest(MustGet(name)(0.05)); got != want[name] {
				t.Errorf("digest %#x, want %#x", got, want[name])
			}
		})
	}
}
