package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimesSplitsOverlappingChildren(t *testing.T) {
	// Round [0, 100): two concurrent encodes overlap on [30, 60), a
	// source fetch of a third session overlaps the first encode on
	// [20, 25), the allocator runs alone, and a span leaks past the round
	// end.
	spans := []span{
		{layerCodec, at(10), at(60)},
		{layerCodec, at(30), at(80)},
		{layerSource, at(20), at(25)},
		{layerSched, at(2), at(6)},
		{layerSink, at(95), at(120)},
	}
	got := selfTimes(at(0), at(100), spans)
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	want := map[string]time.Duration{
		// [10,20) alone 10 + [20,25) half 2.5 + [25,30) alone 5 +
		// [30,60) half 15 (first encode) and 15 + [60,80) alone 20
		// (second encode).
		layerCodec:  ms(10 + 2.5 + 5 + 15 + 15 + 20),
		layerSource: ms(2.5),
		layerSched:  ms(4),
		layerSink:   ms(5),
		// [0,2) + [6,10) + [80,95).
		layerCore: ms(2 + 4 + 15),
	}
	var sum time.Duration
	for l, d := range got {
		sum += d
		if d != want[l] {
			t.Errorf("%s self time = %v, want %v", l, d, want[l])
		}
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the round's 100ms", sum)
	}
}

func TestSelfTimesSumToWallWithRounding(t *testing.T) {
	// Three-way overlaps of odd nanosecond lengths leave rounding
	// residue; it must land in the core's own time, not vanish.
	base := time.Unix(0, 0)
	ns := func(n int) time.Time { return base.Add(time.Duration(n)) }
	spans := []span{{layerCodec, ns(1), ns(8)}, {layerCodec, ns(2), ns(9)}, {layerSource, ns(3), ns(7)}}
	got := selfTimes(ns(0), ns(10), spans)
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 10 {
		t.Errorf("self times sum to %v, want 10ns", sum)
	}
	if len(selfTimes(ns(5), ns(5), spans)) != 0 {
		t.Error("an empty round has self times")
	}
}

func TestSessionSpans(t *testing.T) {
	src := &source{traced: true}
	// Frame 0 fetched twice (stage A–C at admission, then the encoder),
	// frames 1–3 by the encoder, frame 4 by the estimate-ahead, then
	// frames 4–7 in the next round, the session finishing with frame 7.
	calls := []frameSpan{
		{0, at(0), at(1)}, {0, at(5), at(6)}, {1, at(10), at(11)}, {2, at(15), at(16)}, {3, at(20), at(21)},
		{4, at(26), at(27)},
		{4, at(40), at(41)}, {5, at(45), at(46)}, {6, at(50), at(51)}, {7, at(55), at(56)},
	}
	src.spans = calls
	enc := map[int]time.Duration{}
	for n := 0; n < 8; n++ {
		enc[n] = 4 * time.Millisecond
	}
	spans := sessionSpans(src, enc, 2*time.Millisecond, at(0))
	var codec, source, analysis time.Duration
	for _, s := range spans {
		d := s.end.Sub(s.start)
		switch s.layer {
		case layerCodec:
			codec += d
		case layerSource:
			source += d
		case layerAnalysis:
			analysis += d
		}
	}
	if source != 10*time.Millisecond {
		t.Errorf("source = %v, want 10 fetches × 1ms", source)
	}
	// Encodes: 0:[6,10) 1:[11,15) 2:[16,20) 3:[21,26) 4:[41,45)
	// 5:[46,50) 6:[51,55) = 29ms; frame 7 has no next fetch and is
	// charged 4ms × (29ms wall / 28ms encode).
	wall, encoded := 29*time.Millisecond, 28*time.Millisecond
	wantCodec := wall + time.Duration(float64(4*time.Millisecond)*float64(wall)/float64(encoded))
	if codec != wantCodec {
		t.Errorf("codec = %v, want %v", codec, wantCodec)
	}
	// Stage A–C: after the admission fetch of frame 0 (2ms, before the
	// encoder's fetch) and after the estimate-ahead fetch of frame 4.
	if analysis != 4*time.Millisecond {
		t.Errorf("analysis = %v, want 4ms", analysis)
	}
	if got := sessionSpans(src, enc, 0, at(30)); len(got) == 0 || got[0].start.Before(at(30)) {
		t.Error("fetches made before the submit returned were kept")
	}
}
