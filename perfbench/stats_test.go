package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.95, 0.95},
		{200, 0.95, 0.95}, // exactly ten beyond
		{199, 0.95, 1 - 10.0/199},
		{100, 0.95, 0.90},
		{40, 0.95, 0.75},
		{15, 0.95, 0.5}, // never below the median
		{0, 0.95, 0.95},
	} {
		got := tailQuantile(tc.n, tc.q)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
		if tc.n > 0 && float64(tc.n)*(1-got) < minTail-1e-9 && got > 0.5 {
			t.Errorf("tailQuantile(%d, %v) = %v leaves fewer than %d samples beyond", tc.n, tc.q, got, minTail)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := percentile(v, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(v, 0.125); got != 1.5 {
		t.Errorf("p12.5 = %v, want 1.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if v[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestHarrellDavisTracksTheQuantile(t *testing.T) {
	v := make([]float64, 1001)
	for i := range v {
		v[i] = float64(i)
	}
	for _, q := range []float64{0.5, 0.9, 0.95} {
		if got, want := hdQuantile(v, q), q*1000; math.Abs(got-want) > 2 {
			t.Errorf("hdQuantile(0..1000, %v) = %v, want ≈ %v", q, got, want)
		}
	}
	if got := betaInc(3, 3, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("I_0.5(3,3) = %v, want 0.5", got)
	}
	// I_x(1, b) = 1 − (1−x)^b.
	if got, want := betaInc(1, 4, 0.3), 1-math.Pow(0.7, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("I_0.3(1,4) = %v, want %v", got, want)
	}
	if got := tailPercentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single-sample tail = %v, want 7", got)
	}
}

func TestWindowStats(t *testing.T) {
	// 600 samples make three windows of 200; the middle one is slow.
	v := make([]float64, 600)
	for i := range v {
		v[i] = 10
		if i >= 200 && i < 400 {
			v[i] = 30
		}
	}
	v[599] = 12 // the last window's max
	maxOf := func(w []float64) float64 { return percentile(w, 1) }
	got := windowStats(v, maxOf)
	if len(got) != 3 || got[0] != 10 || got[1] != 30 || got[2] != 12 {
		t.Errorf("window maxima = %v, want [10 30 12]", got)
	}
	if calm := percentile(got, calmQuantile); calm != 11 {
		t.Errorf("calm quartile of the window maxima = %v, want 11", calm)
	}
	if got := windowStats(v[:150], maxOf); len(got) != 1 || got[0] != 10 {
		t.Errorf("one short window = %v, want [10]", got)
	}
	if got := windowStats(v[:399], func(w []float64) float64 { return float64(len(w)) }); len(got) != 1 || got[0] != 399 {
		t.Errorf("399 samples form windows %v, want one of 399", got)
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, interval: 40 * time.Millisecond}
	if got := s.due(25); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(25) = %v, want start+1s", got.Sub(start))
	}
	// Requests due strictly before end: 0, 40, …, 960 ms.
	if got := s.count(start.Add(time.Second)); got != 25 {
		t.Errorf("count over 1s = %d, want 25", got)
	}
	if got := s.count(start.Add(time.Second + time.Millisecond)); got != 26 {
		t.Errorf("count over 1.001s = %d, want 26", got)
	}
	if got := s.count(start); got != 0 {
		t.Errorf("count over 0s = %d, want 0", got)
	}
	due := s.due(3)
	if got := lateness(due, due.Add(7*time.Millisecond)); got != 7*time.Millisecond {
		t.Errorf("lateness = %v, want 7ms", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
	if got := lateP99([]time.Duration{0, 0, 0, 0, 100 * time.Millisecond}); got <= 0 {
		t.Errorf("lateP99 = %v, want > 0", got)
	}
}

func TestHeapSlope(t *testing.T) {
	// heap = 12 MB + 0.25 MB per finished session.
	var x, y []float64
	for i := 0; i < 10; i++ {
		x = append(x, float64(i*10))
		y = append(y, 12+0.25*float64(i*10))
	}
	if got := slope(x, y); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("slope = %v, want 0.25", got)
	}
	if got := slope([]float64{3, 3}, []float64{1, 2}); got != 0 {
		t.Errorf("slope without x spread = %v, want 0", got)
	}
}

func TestChunkRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	samples := []progressSample{
		{t0, 0, 0},
		{t0.Add(time.Second), 400 * time.Millisecond, 30},
		{t0.Add(2 * time.Second), 800 * time.Millisecond, 50},   // chunk 1: 50 GOPs in 2 s
		{t0.Add(3 * time.Second), 1400 * time.Millisecond, 100}, // chunk 2: 50 GOPs in 1 s
		{t0.Add(4 * time.Second), 1500 * time.Millisecond, 110}, // too small to close a chunk
	}
	cpu, rate := chunkRates(samples, 40)
	if len(cpu) != 2 || len(rate) != 2 {
		t.Fatalf("chunks = %d/%d, want 2", len(cpu), len(rate))
	}
	if cpu[0] != 16 || cpu[1] != 12 {
		t.Errorf("cpu per GOP = %v, want [16 12]", cpu)
	}
	if rate[0] != 25 || rate[1] != 50 {
		t.Errorf("GOPs per second = %v, want [25 50]", rate)
	}
}

func TestRosterGroupsAreLatinSquares(t *testing.T) {
	const n = 3*rosterClasses + 2 // three full passes and part of a fourth
	groups := rosterGroups(rand.New(rand.NewSource(7)), n)
	if len(groups) != n {
		t.Fatalf("got %d groups, want %d", len(groups), n)
	}
	for i, g := range groups {
		seen := map[int]bool{}
		for _, m := range g {
			seen[m] = true
		}
		if len(g) != rosterClasses || len(seen) != rosterClasses {
			t.Errorf("group %d = %v: want every motion once", i, g)
		}
	}
	for pass := 0; pass+rosterClasses <= n; pass += rosterClasses {
		for c := 0; c < rosterClasses; c++ {
			seen := map[int]bool{}
			for _, g := range groups[pass : pass+rosterClasses] {
				seen[g[c]] = true
			}
			if len(seen) != rosterClasses {
				t.Errorf("pass at %d: class %d does not play every motion once", pass, c)
			}
		}
	}
}
