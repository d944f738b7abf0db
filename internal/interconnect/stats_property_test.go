package interconnect

import (
	"math/rand/v2"
	"testing"

	"uvmsim/internal/sim"
)

// statsModel is an independent reference accounting of what one
// directional channel should have recorded: it re-derives wire bytes
// and occupancy from first principles (the link's published cost
// model) and tracks the busy intervals the engine should observe.
type statsModel struct {
	bytesPerCycle float64
	latency       sim.Cycle
	freeAt        sim.Cycle
	want          ChannelStats
}

func (m *statsModel) occupancy(wire uint64) sim.Cycle {
	cycles := sim.Cycle(float64(wire) / m.bytesPerCycle)
	if float64(cycles)*m.bytesPerCycle < float64(wire) {
		cycles++
	}
	if cycles == 0 {
		cycles = 1
	}
	return cycles
}

// note records one transfer initiated at cycle now and returns the
// completion cycle the link must report.
func (m *statsModel) note(now sim.Cycle, payload, wire uint64) sim.Cycle {
	start := now
	if m.freeAt > start {
		start = m.freeAt
	}
	occ := m.occupancy(wire)
	m.freeAt = start + occ
	m.want.Transfers++
	m.want.Bytes += payload
	m.want.WireBytes += wire
	m.want.BusyCycles += uint64(occ)
	return m.freeAt + m.latency
}

// TestChannelStatsSumToOccupancyProperty drives the PCIe link with
// randomized transfer sequences (sizes, directions, bulk vs remote,
// idle gaps) and checks that per-direction ChannelStats exactly match
// an independently maintained reference model: transfer and byte
// counts sum, busy cycles equal the summed wire occupancies, and the
// wire-busy intervals agree with what the engine observes (freeAt and
// completion cycles). This is the conservation law the utilization
// metrics lean on.
func TestChannelStatsSumToOccupancyProperty(t *testing.T) {
	// The link's cost model: bulk transfers put the payload on the wire
	// verbatim; a remote access pays the header and the wire penalty.
	bulkWire := func(p uint64) uint64 { return p }
	remoteWire := func(p uint64) uint64 { return uint64(float64(p+24) * 3) }
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		rng := rand.New(rand.NewPCG(seed, 0))

		eng := sim.NewEngine()
		link := New(eng, 10, 100, 24, 3)
		models := [2]*statsModel{
			{bytesPerCycle: 10, latency: 100},
			{bytesPerCycle: 10, latency: 100},
		}

		pending := 0
		for i := 0; i < 400; i++ {
			dir := Direction(rng.IntN(2))
			m := models[dir]
			var got, want sim.Cycle
			if rng.IntN(3) == 0 {
				payload := uint64(1 + rng.IntN(128)) // sector-sized
				want = m.note(eng.Now(), payload, remoteWire(payload))
				pending++
				got = link.RemoteAccess(dir, payload, func() { pending-- })
			} else {
				payload := uint64(1 + rng.IntN(1<<16)) // up to 64KB bulk
				want = m.note(eng.Now(), payload, bulkWire(payload))
				pending++
				got = link.Transfer(dir, payload, func() { pending-- })
			}
			if got != want {
				t.Fatalf("seed %d: completion = %d, want %d", seed, got, want)
			}
			if fa := link.FreeAt(dir); fa != m.freeAt {
				t.Fatalf("seed %d: FreeAt = %d, model says %d", seed, fa, m.freeAt)
			}
			// Occasionally let simulated time advance so transfers start
			// against a moving engine clock, not always a contended wire.
			if rng.IntN(4) == 0 {
				eng.At(eng.Now()+sim.Cycle(1+rng.IntN(500)), func() {})
				eng.Run()
			}
		}
		eng.Run()
		if pending != 0 {
			t.Fatalf("seed %d: %d completion callbacks never fired", seed, pending)
		}

		for _, dir := range []Direction{HostToDevice, DeviceToHost} {
			got, want := link.Stats(dir), models[dir].want
			if got != want {
				t.Fatalf("seed %d %s: stats = %+v, model = %+v", seed, dir, got, want)
			}
			// Busy cycles can never exceed the span the wire has been
			// in use for, and utilization must agree with the ratio.
			if got.BusyCycles > uint64(link.FreeAt(dir)) {
				t.Fatalf("seed %d %s: busy %d exceeds freeAt %d", seed, dir, got.BusyCycles, link.FreeAt(dir))
			}
			wantUtil := float64(got.BusyCycles) / float64(eng.Now())
			if u := link.Utilization(dir); u != wantUtil {
				t.Fatalf("seed %d %s: utilization = %v, want %v", seed, dir, u, wantUtil)
			}
		}
	}
}
