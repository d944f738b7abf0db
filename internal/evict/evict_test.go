package evict

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"uvmsim/internal/config"
)

func TestNewDispatch(t *testing.T) {
	if New(config.ReplaceLRU).Name() != "LRU" {
		t.Error("LRU dispatch wrong")
	}
	if New(config.ReplaceLFU).Name() != "LFU" {
		t.Error("LFU dispatch wrong")
	}
}

func TestNewUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown policy did not panic")
		}
	}()
	New(config.ReplacementPolicy(42))
}

func TestLRUPicksOldest(t *testing.T) {
	p := New(config.ReplaceLRU)
	cands := []Candidate{
		{Unit: 0, LastAccess: 300, Full: true},
		{Unit: 1, LastAccess: 100, Full: true},
		{Unit: 2, LastAccess: 200, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("SelectVictim = %d,%v want 1,true", idx, ok)
	}
}

func TestLRUPrefersFullChunks(t *testing.T) {
	p := New(config.ReplaceLRU)
	cands := []Candidate{
		{Unit: 0, LastAccess: 10, Full: false}, // oldest but partial
		{Unit: 1, LastAccess: 500, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("full chunk not preferred: got %d", idx)
	}
}

func TestLRURelaxesToPartialWhenNoFull(t *testing.T) {
	p := New(config.ReplaceLRU)
	cands := []Candidate{
		{Unit: 0, LastAccess: 10, Full: false},
		{Unit: 1, LastAccess: 5, Full: false},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("partial fallback wrong: got %d,%v", idx, ok)
	}
}

func TestPinnedNeverSelected(t *testing.T) {
	for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		p := New(kind)
		cands := []Candidate{
			{Unit: 0, LastAccess: 1, Full: true, Pinned: true},
			{Unit: 1, LastAccess: 2, Full: true},
		}
		idx, ok := p.SelectVictim(cands)
		if !ok || idx != 1 {
			t.Fatalf("%v picked pinned candidate: %d,%v", kind, idx, ok)
		}
		allPinned := []Candidate{{Full: true, Pinned: true}}
		if _, ok := p.SelectVictim(allPinned); ok {
			t.Fatalf("%v selected from all-pinned set", kind)
		}
	}
}

func TestLFUPicksColdest(t *testing.T) {
	p := New(config.ReplaceLFU)
	cands := []Candidate{
		{Unit: 0, Score: 1000, LastAccess: 1, Full: true},
		{Unit: 1, Score: 5, LastAccess: 900, Full: true}, // cold despite recent
		{Unit: 2, Score: 400, LastAccess: 2, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("LFU did not pick coldest: got %d", idx)
	}
}

func TestLFUPrefersCleanAmongEqualScores(t *testing.T) {
	p := New(config.ReplaceLFU)
	cands := []Candidate{
		{Unit: 0, Score: 10, Dirty: true, LastAccess: 1, Full: true},
		{Unit: 1, Score: 10, Dirty: false, LastAccess: 2, Full: true},
		{Unit: 2, Score: 900, Dirty: false, LastAccess: 3, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("LFU did not prefer clean unit: got %d", idx)
	}
}

func TestLFUUniformFallsBackToLRU(t *testing.T) {
	p := New(config.ReplaceLFU)
	// Scores within 12.5% of each other: regular application. The pick
	// must follow LastAccess (unit 2), not the marginally lowest score
	// (unit 0).
	cands := []Candidate{
		{Unit: 0, Score: 95, LastAccess: 500, Full: true},
		{Unit: 1, Score: 100, LastAccess: 400, Full: true},
		{Unit: 2, Score: 98, LastAccess: 100, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 2 {
		t.Fatalf("uniform fallback wrong: got %d", idx)
	}
}

func TestLFUHotColdSplitIgnoresRecency(t *testing.T) {
	// Irregular application shape: one hot chunk touched constantly, one
	// cold chunk touched long ago. LRU would evict the cold one too —
	// but make the cold chunk the *recent* one to show LFU differs.
	cands := []Candidate{
		{Unit: 0, Score: 100000, LastAccess: 50, Full: true}, // hot, old
		{Unit: 1, Score: 3, LastAccess: 900, Full: true},     // cold, recent
	}
	lfuIdx, _ := New(config.ReplaceLFU).SelectVictim(cands)
	lruIdx, _ := New(config.ReplaceLRU).SelectVictim(cands)
	if lfuIdx != 1 {
		t.Fatalf("LFU evicted the hot chunk")
	}
	if lruIdx != 0 {
		t.Fatalf("LRU should have evicted the old (hot) chunk")
	}
}

func TestEmptyCandidates(t *testing.T) {
	for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		if _, ok := New(kind).SelectVictim(nil); ok {
			t.Fatalf("%v selected from empty set", kind)
		}
	}
}

// Property: the selected victim is always eligible (not pinned; full if
// any full candidate exists), for both policies and arbitrary inputs.
func TestVictimEligibilityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%12 + 1
		cands := make([]Candidate, count)
		anyFullUnpinned := false
		anyUnpinned := false
		for i := range cands {
			cands[i] = Candidate{
				Unit:       uint64(i),
				LastAccess: uint64(rng.Intn(1000)),
				Score:      uint64(rng.Intn(1000)),
				Dirty:      rng.Intn(2) == 0,
				Full:       rng.Intn(2) == 0,
				Pinned:     rng.Intn(3) == 0,
			}
			if !cands[i].Pinned {
				anyUnpinned = true
				if cands[i].Full {
					anyFullUnpinned = true
				}
			}
		}
		for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
			idx, ok := New(kind).SelectVictim(cands)
			if ok != anyUnpinned {
				return false
			}
			if !ok {
				continue
			}
			v := cands[idx]
			if v.Pinned {
				return false
			}
			if anyFullUnpinned && !v.Full {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LRU's victim has the minimum LastAccess among same-class
// (full/partial) eligible candidates.
func TestLRUMinimalityProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		cands := make([]Candidate, len(times))
		for i, tm := range times {
			cands[i] = Candidate{Unit: uint64(i), LastAccess: uint64(tm), Full: true}
		}
		idx, ok := New(config.ReplaceLRU).SelectVictim(cands)
		if !ok {
			return false
		}
		for _, c := range cands {
			if c.LastAccess < cands[idx].LastAccess {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Table tests for the fallback and tie-break edge cases the driver can
// reach: all candidates pinned, all scores zero, and fully tied keys.
func TestSelectVictimEdgeCases(t *testing.T) {
	for name, tc := range map[string]struct {
		policy config.ReplacementPolicy
		cands  []Candidate
		want   int // expected index, -1 when ok must be false
	}{
		"allPinnedLRU": {
			policy: config.ReplaceLRU,
			cands: []Candidate{
				{Unit: 0, LastAccess: 5, Full: true, Pinned: true},
				{Unit: 1, LastAccess: 1, Full: true, Pinned: true},
			},
			want: -1,
		},
		"allPinnedLFU": {
			policy: config.ReplaceLFU,
			cands: []Candidate{
				{Unit: 0, Score: 9, Full: true, Pinned: true},
				{Unit: 1, Score: 1, Full: true, Pinned: true},
			},
			want: -1,
		},
		// All-zero scores must be treated as explicitly uniform: the
		// LFU policy falls back to LRU and picks the oldest, not the
		// first zero-score entry its cold-first pass happens to see.
		"allZeroScoresFallBackToLRU": {
			policy: config.ReplaceLFU,
			cands: []Candidate{
				{Unit: 0, Score: 0, LastAccess: 50, Full: true},
				{Unit: 1, Score: 0, LastAccess: 10, Full: true},
				{Unit: 2, Score: 0, LastAccess: 30, Full: true},
			},
			want: 1,
		},
		// Candidates equal on (score, dirty, LastAccess) tie-break by
		// the lowest unit number — even when the list is not sorted.
		"fullTieBreaksByUnitLFU": {
			policy: config.ReplaceLFU,
			cands: []Candidate{
				{Unit: 7, Score: 2, LastAccess: 10, Full: true},
				{Unit: 3, Score: 2, LastAccess: 10, Full: true},
				{Unit: 5, Score: 100, LastAccess: 10, Full: true},
			},
			want: 1,
		},
		"fullTieBreaksByUnitLRU": {
			policy: config.ReplaceLRU,
			cands: []Candidate{
				{Unit: 9, LastAccess: 10, Full: true},
				{Unit: 2, LastAccess: 10, Full: true},
				{Unit: 4, LastAccess: 10, Full: true},
			},
			want: 1,
		},
	} {
		t.Run(name, func(t *testing.T) {
			idx, ok := New(tc.policy).SelectVictim(tc.cands)
			if tc.want == -1 {
				if ok {
					t.Fatalf("selected %d from all-pinned candidates", idx)
				}
				return
			}
			if !ok || idx != tc.want {
				t.Fatalf("SelectVictim = (%d, %v), want (%d, true)", idx, ok, tc.want)
			}
		})
	}
}

// Property: selection is order-independent — shuffling the candidate
// list never changes the chosen unit (the Unit tie-break makes the
// ordering total).
func TestSelectionOrderIndependenceProperty(t *testing.T) {
	f := func(seed int64, scores []uint8, pol bool) bool {
		if len(scores) == 0 {
			return true
		}
		policy := config.ReplaceLRU
		if pol {
			policy = config.ReplaceLFU
		}
		cands := genCandidates(scores, nil)
		idx, ok := New(policy).SelectVictim(cands)
		if !ok {
			return false
		}
		wantUnit := cands[idx].Unit
		rng := rand.New(rand.NewSource(seed))
		shuffled := append([]Candidate(nil), cands...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		idx2, ok2 := New(policy).SelectVictim(shuffled)
		return ok2 && shuffled[idx2].Unit == wantUnit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// genCandidates builds a candidate list from quick-generated bytes. Each
// score yields one full, unpinned candidate whose LastAccess (score mod
// 4) and Dirty (even score) collide often, so the tie-breaks decide.
// flags[i], where present, pins candidate i when bit 0 is set and makes
// it partial when bit 1 is set.
func genCandidates(scores, flags []uint8) []Candidate {
	cands := make([]Candidate, len(scores))
	for i, sc := range scores {
		cands[i] = Candidate{
			Unit:       uint64(i),
			Score:      uint64(sc),
			LastAccess: uint64(sc % 4), // force frequent ties
			Dirty:      sc%2 == 0,
			Full:       true,
		}
		if i < len(flags) {
			cands[i].Pinned = flags[i]&1 != 0
			cands[i].Full = flags[i]&2 == 0
		}
	}
	return cands
}

// naiveSelect is the deliberately naive reference for victim selection:
// collect the eligible candidates (full units only, or any unpinned unit
// when no full one is eligible), apply LFU's uniform-spread test, sort
// by the chosen key and take the first. It reports whether LFU ranked
// by lfuKey rather than falling back to LRU order.
func naiveSelect(kind config.ReplacementPolicy, cands []Candidate) (idx int, ok, byScore bool) {
	var pool []int
	for _, fullOnly := range []bool{true, false} {
		for i, c := range cands {
			if !c.Pinned && (c.Full || !fullOnly) {
				pool = append(pool, i)
			}
		}
		if len(pool) > 0 {
			break
		}
	}
	if len(pool) == 0 {
		return -1, false, false
	}
	key := lruKey
	if kind == config.ReplaceLFU {
		lo, hi := cands[pool[0]].Score, cands[pool[0]].Score
		for _, i := range pool {
			lo, hi = min(lo, cands[i].Score), max(hi, cands[i].Score)
		}
		if hi > 0 && hi-lo > hi/uniformSpreadDivisor {
			key, byScore = lfuKey, true
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		ka, kb := key(&cands[pool[a]]), key(&cands[pool[b]])
		return slices.Compare(ka[:], kb[:]) < 0
	})
	return pool[0], true, byScore
}

// Property: both policies pick exactly the naive reference's victim
// over full, partial and pinned candidates, and LFU's score ranking and
// its LRU fallback are both exercised.
func TestSelectionMatchesNaiveReferenceProperty(t *testing.T) {
	var byScore, fallback int
	f := func(scores, flags []uint8) bool {
		cands := genCandidates(scores, flags)
		for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
			idx, ok := New(kind).SelectVictim(cands)
			want, wantOK, ranked := naiveSelect(kind, cands)
			if ok != wantOK || idx != want {
				t.Errorf("%v: SelectVictim = (%d, %v), reference (%d, %v) over %+v", kind, idx, ok, want, wantOK, cands)
				return false
			}
			if kind == config.ReplaceLFU && ok {
				if ranked {
					byScore++
				} else {
					fallback++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if byScore == 0 || fallback == 0 {
		t.Fatalf("LFU ranked by score %d times and fell back to LRU %d times; want both", byScore, fallback)
	}
}
