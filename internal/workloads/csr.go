package workloads

import (
	"math/bits"

	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
)

// maskedCSRProgram is the warp program of Rodinia-style graph kernels
// (bfs kernel1 and sssp kernel1): every iteration launches one thread
// per node, so the kernel *densely* sweeps the small mask array over the
// whole node range, and only the active (frontier) nodes walk their
// adjacency — a *sparse* excursion into the large edges/weights arrays
// followed by divergent scatter writes into the distance array.
//
// This is exactly the hot/cold split the paper characterizes in §III-B:
// node-sized arrays are dense, repetitive and hot; edge-sized arrays are
// sparse, input-dependent and cold.
type maskedCSRProgram struct {
	g          *Graph
	maskBase   memunits.Addr
	rowPtrBase memunits.Addr
	edgeBase   memunits.Addr
	distBase   memunits.Addr
	weightBase memunits.Addr // zero disables the weight read (bfs)
	active     []uint64      // shared frontier bitmap, one bit per node
	lo, hi     int           // node range of this warp
	compute    uint64

	group    int // start node of the current 32-node group
	phase    int // 0 = dense mask read, 1 = rowptr gather, 2 = edge drain
	node     int // node currently draining edges
	edgePos  int32
	edgeHi   int32
	subPhase int // 0 read edges, 1 read weights, 2 scatter-write dist
	groupLen int
}

// newMaskedCSR builds the program for the contiguous node range [lo,hi).
func newMaskedCSR(g *Graph, mask, rowPtr, edges, dist, weights memunits.Addr, active []uint64, lo, hi int, compute uint64) *maskedCSRProgram {
	return &maskedCSRProgram{
		g: g, maskBase: mask, rowPtrBase: rowPtr, edgeBase: edges,
		distBase: dist, weightBase: weights, active: active,
		lo: lo, hi: hi, compute: compute, group: lo,
	}
}

// frontierBitmap builds the shared active bitmap for a frontier.
func frontierBitmap(n int, frontier []int32) []uint64 {
	bm := make([]uint64, (n+63)/64)
	for _, v := range frontier {
		bm[v/64] |= 1 << (uint(v) % 64)
	}
	return bm
}

// nextActive returns the first active node in [from, to), or to. It
// scans the bitmap a word at a time.
func (p *maskedCSRProgram) nextActive(from, to int) int {
	for from < to {
		if word := p.active[from/64] >> (uint(from) % 64); word != 0 {
			return min(from+bits.TrailingZeros64(word), to)
		}
		from = (from/64 + 1) * 64
	}
	return to
}

// Next implements gpu.WarpProgram.
func (p *maskedCSRProgram) Next(in *gpu.Instr) bool {
	for {
		if p.group >= p.hi {
			return false
		}
		gEnd := p.group + lanes
		if gEnd > p.hi {
			gEnd = p.hi
		}
		switch p.phase {
		case 0:
			// Dense read of the mask for every node of the group: the
			// hot, repetitive component present in every iteration.
			in.Write = false
			in.Compute = p.compute
			in.NumAddrs = gEnd - p.group
			in.Base = p.maskBase + uint64(p.group)*elemSize
			in.Stride = elemSize
			p.phase = 1
			return true
		case 1:
			// Gather the row pointers of the group's active nodes.
			n := 0
			for v := p.nextActive(p.group, gEnd); v < gEnd; v = p.nextActive(v+1, gEnd) {
				in.Addrs[n] = p.rowPtrBase + uint64(v)*elemSize
				n++
			}
			if n == 0 {
				p.group = gEnd
				p.phase = 0
				continue
			}
			in.Write = false
			in.Compute = 1
			in.NumAddrs = n
			p.phase = 2
			p.node = p.group - 1
			p.advanceNode(gEnd)
			return true
		default:
			if p.node >= gEnd {
				p.group = gEnd
				p.phase = 0
				continue
			}
			if p.edgePos >= p.edgeHi {
				p.advanceNode(gEnd)
				continue
			}
			n := int(p.edgeHi - p.edgePos)
			if n > lanes {
				n = lanes
			}
			switch p.subPhase {
			case 0: // dense read of edge targets (the cold array)
				p.groupLen = n
				in.Write = false
				in.Compute = 0
				in.NumAddrs = n
				in.Base = p.edgeBase + uint64(p.edgePos)*elemSize
				in.Stride = elemSize
				if p.weightBase != 0 {
					p.subPhase = 1
				} else {
					p.subPhase = 2
				}
				return true
			case 1: // dense read of edge weights (sssp)
				in.Write = false
				in.Compute = 0
				in.NumAddrs = p.groupLen
				in.Base = p.weightBase + uint64(p.edgePos)*elemSize
				in.Stride = elemSize
				p.subPhase = 2
				return true
			default: // divergent scatter write into the hot dist array
				in.Write = true
				in.Compute = 2
				in.NumAddrs = p.groupLen
				for i := 0; i < p.groupLen; i++ {
					t := p.g.Edges[p.edgePos+int32(i)]
					in.Addrs[i] = p.distBase + uint64(t)*elemSize
				}
				p.edgePos += int32(p.groupLen)
				p.subPhase = 0
				return true
			}
		}
	}
}

// advanceNode positions the edge cursor at the next active node of the
// group, or past gEnd when the group is drained.
func (p *maskedCSRProgram) advanceNode(gEnd int) {
	p.node = p.nextActive(p.node+1, gEnd)
	if p.node < gEnd {
		p.edgePos = p.g.RowPtr[p.node]
		p.edgeHi = p.g.RowPtr[p.node+1]
		p.subPhase = 0
	}
}
