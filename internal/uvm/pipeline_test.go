package uvm

import (
	"testing"

	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/sim"
)

// newPipelineRig is newRig with explicit pipeline stages (nil stages
// fall back to the configured defaults) — the mock seam of the contract
// tests.
func newPipelineRig(t *testing.T, mut func(*config.Config), allocBytes uint64, pipe mm.Pipeline) *testRig {
	t.Helper()
	cfg := config.Default()
	cfg.DeviceMemBytes = 8 << 20 // 4 chunks by default
	if mut != nil {
		mut(&cfg)
	}
	eng := sim.NewEngine()
	eng.SetEventBudget(50_000_000)
	space := alloc.NewSpace()
	a := space.Alloc("data", allocBytes, false)
	return &testRig{eng: eng, d: NewWithPipeline(eng, cfg, space, pipe), space: space, a: a}
}

// touchAll issues one synchronous read to the first sector of every
// block of the rig's allocation and asserts each one completes.
func touchAll(t *testing.T, r *testRig) int {
	t.Helper()
	n := 0
	for off := uint64(0); off < r.a.Size; off += memunits.BlockSize {
		r.syncAccess(t, r.a.Base+memunits.Addr(off), false)
		n++
	}
	return n
}

// refusingEvictor is a mock EvictionEngine that never frees memory.
type refusingEvictor struct{ calls int }

func (e *refusingEvictor) Name() string                  { return "refusing-mock" }
func (e *refusingEvictor) EvictOne(mm.EvictionHost) bool { e.calls++; return false }

// The central EvictionEngine contract: an engine that refuses to evict
// must degrade stalled migrations to remote accesses — every access
// completes, the driver quiesces (PendingWork false), and the refusal
// surfaces in the remote-access counters rather than as a hang.
func TestRefusingEvictionEngineDegradesToRemote(t *testing.T) {
	ev := &refusingEvictor{}
	// 2 chunks of device memory, an 8-chunk allocation: most blocks can
	// never obtain capacity once the first two chunks fill.
	r := newPipelineRig(t, func(cfg *config.Config) {
		cfg.DeviceMemBytes = 2 * memunits.ChunkSize
	}, 8*memunits.ChunkSize, mm.Pipeline{Evictor: ev})

	touchAll(t, r)

	if r.d.PendingWork() {
		t.Fatal("driver did not quiesce with a refusing eviction engine")
	}
	st := r.d.Stats()
	if st.RemoteReads == 0 {
		t.Fatal("no access degraded to remote")
	}
	if st.MigratedPages == 0 {
		t.Fatal("nothing migrated before memory filled — the refusal path was never under pressure")
	}
	if st.EvictedPages != 0 {
		t.Fatalf("refusing engine evicted %d pages", st.EvictedPages)
	}
	if ev.calls == 0 {
		t.Fatal("eviction engine was never consulted")
	}
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent state after demotion: %v", err)
	}
	// The driver must remain usable: resident blocks still serve near.
	if _, ok := r.d.TryFastAccess(r.a.Base, false); !ok {
		t.Fatal("resident block lost after demotions")
	}
}

// The registry route to the same contract: the "none" engine selected
// purely by configuration string, without touching driver construction.
func TestRefusingEvictorByNameDegradesToRemote(t *testing.T) {
	r := newRigWithSpec(t, config.PipelineSpec{Evictor: "none"})
	touchAll(t, r)
	if r.d.PendingWork() {
		t.Fatal("driver did not quiesce")
	}
	if st := r.d.Stats(); st.RemoteReads == 0 || st.EvictedPages != 0 {
		t.Fatalf("remote=%d evicted=%d; want remote>0, evicted=0", st.RemoteReads, st.EvictedPages)
	}
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func newRigWithSpec(t *testing.T, spec config.PipelineSpec) *testRig {
	t.Helper()
	cfg := config.Default()
	cfg.DeviceMemBytes = 2 * memunits.ChunkSize
	cfg.MMPipeline = spec
	eng := sim.NewEngine()
	eng.SetEventBudget(50_000_000)
	space := alloc.NewSpace()
	a := space.Alloc("data", 8*memunits.ChunkSize, false)
	return &testRig{eng: eng, d: New(eng, cfg, space), space: space, a: a}
}

// denyPlanner is a mock MigrationPlanner that never migrates.
type denyPlanner struct{}

func (denyPlanner) Name() string                 { return "deny-mock" }
func (denyPlanner) ShouldMigrate(mm.Access) bool { return false }

// The MigrationPlanner contract: the planner alone decides migrate vs
// remote — a planner that always refuses turns every access into a
// remote access and nothing ever migrates.
func TestDenyPlannerServesEverythingRemotely(t *testing.T) {
	r := newPipelineRig(t, nil, 4<<20, mm.Pipeline{Planner: denyPlanner{}})
	n := touchAll(t, r)
	st := r.d.Stats()
	if st.MigratedPages != 0 || st.FarFaults != 0 {
		t.Fatalf("migrated=%d faults=%d with a deny planner", st.MigratedPages, st.FarFaults)
	}
	if st.RemoteReads != uint64(n) {
		t.Fatalf("remote reads = %d, want %d", st.RemoteReads, n)
	}
	if r.d.PendingWork() {
		t.Fatal("pending work without any migration")
	}
}

// Migration grouping comes only from the chunk prefetcher of the
// configured kind, so the single-block kind yields zero prefetched
// pages while demand migration still works.
func TestSoloGovernorDisablesPrefetch(t *testing.T) {
	r := newRig(t, func(cfg *config.Config) { cfg.Prefetcher = config.PrefetchNone }, 4<<20)
	n := touchAll(t, r)
	st := r.d.Stats()
	if st.PrefetchedPages != 0 {
		t.Fatalf("prefetcher kind none prefetched %d pages", st.PrefetchedPages)
	}
	if st.MigratedPages != uint64(n)*memunits.PagesPerBlock {
		t.Fatalf("migrated %d pages, want %d", st.MigratedPages, uint64(n)*memunits.PagesPerBlock)
	}
}

// The stock driver merges a re-fault of a pending block into that
// block's waiter list, so no block ever appears twice in one fault
// batch: the uniqueness the batcher relies on instead of filtering.
// Each pass issues every sector of every block (writes on even passes)
// before the engine runs, so all of a pass's faults land in one open
// batch; memory holds half the allocation, so later passes re-fault
// evicted blocks and exercise eviction and write-back too.
func TestStockBatchHasNoDuplicateBlocks(t *testing.T) {
	r := newRig(t, func(cfg *config.Config) {
		cfg.DeviceMemBytes = 2 * memunits.ChunkSize
	}, 4*memunits.ChunkSize)
	var batched uint64
	for pass := 0; pass < 3; pass++ {
		pending := 0
		for off := uint64(0); off < r.a.Size; off += memunits.BlockSize {
			for sec := uint64(0); sec < 4; sec++ {
				pending++
				r.d.Access(r.a.Base+memunits.Addr(off+sec*memunits.SectorSize), pass%2 == 0, func() { pending-- })
			}
		}
		seen := map[memunits.BlockNum]bool{}
		for _, b := range r.d.batcher.batch {
			if seen[b] {
				t.Fatalf("pass %d: block %d appears twice in one batch", pass, b)
			}
			seen[b] = true
		}
		if len(seen) == 0 {
			t.Fatalf("pass %d raised no faults — the check proves nothing", pass)
		}
		batched += uint64(len(seen))
		r.eng.Run()
		if pending != 0 {
			t.Fatalf("pass %d: %d accesses never completed", pass, pending)
		}
	}
	if st := r.d.Stats(); st.FarFaults != batched || st.EvictedPages == 0 {
		t.Fatalf("far faults %d, batched blocks %d, evicted %d; want equal counts and evictions",
			st.FarFaults, batched, st.EvictedPages)
	}
}

// The accumulator opens a round on the first add only and hands back
// every added block, in order, at close.
func TestAccumBatcherRounds(t *testing.T) {
	var b accumBatcher
	if b.open {
		t.Fatal("fresh batcher is open")
	}
	if !b.add(3) {
		t.Fatal("first add did not open the round")
	}
	if b.add(7) || b.add(3) {
		t.Fatal("later adds re-opened the round")
	}
	if !b.open {
		t.Fatal("batcher not open after add")
	}
	got := b.close()
	want := []memunits.BlockNum{3, 7, 3}
	if len(got) != len(want) {
		t.Fatalf("batch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch = %v, want %v", got, want)
		}
	}
	if b.open {
		t.Fatal("batcher still open after close")
	}
	if !b.add(1) {
		t.Fatal("add after close did not open a new round")
	}
}

// An empty close returns nothing and leaves round tracking intact.
func TestAccumBatcherEmptyCloseIsNoOp(t *testing.T) {
	var b accumBatcher
	if got := b.close(); len(got) != 0 {
		t.Fatalf("empty close returned %v", got)
	}
	if b.open {
		t.Fatal("batcher open after an empty close")
	}
	if !b.add(9) {
		t.Fatal("no round opened after an empty close")
	}
	if got := b.close(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("round after empty close = %v, want [9]", got)
	}
}

// Pipeline() exposes the composed stages, and New fills defaults from
// the configuration.
func TestPipelineIntrospection(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	p := r.d.Pipeline()
	if p.Planner == nil || p.Evictor == nil {
		t.Fatalf("incomplete pipeline: %+v", p)
	}
	if p.Planner.Name() != "threshold" {
		t.Fatalf("default planner = %q", p.Planner.Name())
	}
	// config.Default pairs no migration policy with LRU replacement.
	if p.Evictor.Name() != "LRU" {
		t.Fatalf("default evictor = %q", p.Evictor.Name())
	}
}

// The thrash-guard planner ships through the registry seam: selecting
// it by name changes behaviour (chronic thrashers stop migrating)
// without any driver-core hook.
func TestThrashGuardStopsChronicThrashing(t *testing.T) {
	run := func(planner string) *runTally {
		cfg := config.Default().WithPolicy(config.PolicyDisabled)
		cfg.DeviceMemBytes = 2 * memunits.ChunkSize
		cfg.MMPipeline.Planner = planner
		eng := sim.NewEngine()
		eng.SetEventBudget(200_000_000)
		space := alloc.NewSpace()
		a := space.Alloc("data", 4*memunits.ChunkSize, false)
		r := &testRig{eng: eng, d: New(eng, cfg, space), space: space, a: a}
		// Cyclic passes over 2x capacity under first-touch: the classic
		// thrashing pattern.
		for pass := 0; pass < 6; pass++ {
			for off := uint64(0); off < r.a.Size; off += memunits.BlockSize {
				r.syncAccess(t, r.a.Base+memunits.Addr(off), false)
			}
		}
		st := r.d.Stats()
		return &runTally{thrashed: st.ThrashedPages, remote: st.RemoteReads + st.RemoteWrites}
	}
	base := run("")
	guarded := run("thrash-guard")
	if base.thrashed == 0 {
		t.Fatal("baseline did not thrash — the pattern proves nothing")
	}
	if guarded.thrashed >= base.thrashed {
		t.Fatalf("thrash-guard did not reduce thrashing: %d vs %d", guarded.thrashed, base.thrashed)
	}
	if guarded.remote == 0 {
		t.Fatal("thrash-guard never served pinned blocks remotely")
	}
}

type runTally struct{ thrashed, remote uint64 }
