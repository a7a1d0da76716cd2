package motion

import "testing"

// TestSearchAllocationFree checks that every searcher allocates nothing
// per search once the search-state pool is warm.
func TestSearchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released objects at random under -race")
	}
	cur, ref := shiftedPlanes(128, 128, -6, 4)
	b := interiorBlock(cur, ref)
	for _, s := range append(allSearchers, OneAtATime{Direction: MV{0, -3}}) {
		s.Search(b, 16, MV{1, 0}) // warm the pool
		if n := testing.AllocsPerRun(100, func() { s.Search(b, 16, MV{1, 0}) }); n != 0 {
			t.Errorf("%s: %v allocations per search, want 0", s.Name(), n)
		}
	}
}

// TestPooledStateIsReset parks dirty search states in the pool (stale
// incumbent, counters and memo entries for every candidate) and checks
// that every searcher still returns what it returned on fresh states.
func TestPooledStateIsReset(t *testing.T) {
	cur, ref := shiftedPlanes(128, 128, -6, 4)
	b := interiorBlock(cur, ref)
	want := make([]Result, len(allSearchers))
	for i, s := range allSearchers {
		want[i] = s.Search(b, 16, MV{1, 0})
	}
	for i, s := range allSearchers {
		for j := 0; j < 4; j++ {
			dirty := &searchState{best: MV{7, -7}, cost: -1, rawSAD: -1, evals: 1000, pred: MV{3, 3}, seen: map[MV]int64{}}
			for y := -16; y <= 16; y++ {
				for x := -16; x <= 16; x++ {
					dirty.seen[MV{x, y}] = -5
				}
			}
			statePool.Put(dirty)
		}
		if got := s.Search(b, 16, MV{1, 0}); got != want[i] {
			t.Errorf("%s on a dirty pooled state: %+v, fresh %+v", s.Name(), got, want[i])
		}
	}
}

var benchResult Result

func BenchmarkHexagonSearch(b *testing.B) {
	cur, ref := shiftedPlanes(128, 128, -6, 4)
	blocks := make([]Block, 0, 16)
	for y := 16; y < 112; y += 32 {
		for x := 16; x < 112; x += 24 {
			blocks = append(blocks, Block{Cur: cur, Ref: ref, X: x, Y: y, W: 16, H: 16})
		}
	}
	s := Hexagon{Orientation: HexRotating}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		benchResult = s.Search(blocks[i%len(blocks)], 32, MV{})
	}
}
