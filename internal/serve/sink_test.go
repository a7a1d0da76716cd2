package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpsoc"
)

// TestJSONLSinkStreamsParseableEvents: every event becomes one valid JSON
// line with the expected envelope, and the stream covers the session's
// whole lifecycle.
func TestJSONLSinkStreamsParseableEvents(t *testing.T) {
	var buf bytes.Buffer
	f, err := New(WithShards(1), WithSink(NewJSONLSink(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "stream", 1, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Event   string `json:"event"`
			Shard   int    `json:"shard"`
			Session int    `json:"session"`
			State   string `json:"state"`
			Frames  int    `json:"frames"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable line %q: %v", sc.Text(), err)
		}
		if line.Event == "" {
			t.Fatalf("line without event type: %q", sc.Text())
		}
		if line.Event == "gop" && line.Frames != 4 {
			t.Fatalf("gop event with %d frames, want 4: %q", line.Frames, sc.Text())
		}
		counts[line.Event]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 8 frames in GOPs of 4 → 2 rounds, 2 GOPs; queued + completed.
	if counts["gop"] != 2 || counts["round"] != 2 || counts["session_state"] != 2 {
		t.Fatalf("event counts %v, want 2 gop / 2 round / 2 session_state", counts)
	}
}

// gateWriter blocks every Write until released.
type gateWriter struct {
	release chan struct{}
	buf     bytes.Buffer
	writes  int
}

func (g *gateWriter) Write(p []byte) (int, error) {
	<-g.release
	g.writes++
	return g.buf.Write(p)
}

// TestBufferedJSONLSinkDropPolicy: with a writer that cannot keep up, a
// JSONLDrop sink never blocks the event path — it sheds lines and counts
// them, and every line it kept is intact.
func TestBufferedJSONLSinkDropPolicy(t *testing.T) {
	gate := &gateWriter{release: make(chan struct{})}
	sink := NewBufferedJSONLSink(gate, 2, JSONLDrop)

	const events = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < events; i++ {
			sink.OnSessionStateChange(SessionEvent{Shard: 0, Session: i})
		}
	}()
	select {
	case <-done:
		// The serving path never waited on the stalled writer.
	case <-time.After(10 * time.Second):
		t.Fatal("drop-policy sink blocked the event path behind a stalled writer")
	}
	close(gate.release)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	dropped := int(sink.Dropped())
	if dropped == 0 {
		t.Fatal("a stalled writer dropped nothing — the buffer cannot have been bounded")
	}
	kept := 0
	sc := bufio.NewScanner(&gate.buf)
	for sc.Scan() {
		var line struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("dropped mid-line, kept lines corrupt: %q", sc.Text())
		}
		kept++
	}
	if kept+dropped != events {
		t.Fatalf("kept %d + dropped %d != %d emitted", kept, dropped, events)
	}
}

// TestBufferedJSONLSinkBlockPolicy: the block policy loses nothing — all
// lines arrive, in order, once the writer drains; Close flushes.
func TestBufferedJSONLSinkBlockPolicy(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBufferedJSONLSink(&buf, 4, JSONLBlock)
	const events = 100
	for i := 0; i < events; i++ {
		sink.OnSessionStateChange(SessionEvent{Shard: 1, Session: i})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("block policy dropped %d lines", sink.Dropped())
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var line struct {
			Session int `json:"session"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Session != n {
			t.Fatalf("line %d carries session %d — ordering broken", n, line.Session)
		}
		n++
	}
	if n != events {
		t.Fatalf("%d lines written, want %d", n, events)
	}
}

// TestBufferedJSONLSinkServesFleet: a buffered sink on a real fleet run
// sees the same event stream a synchronous one would.
func TestBufferedJSONLSinkServesFleet(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBufferedJSONLSink(&buf, 64, JSONLBlock)
	f, err := New(WithShards(1), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "buffered", 1, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		counts[line.Event]++
	}
	if counts["gop"] != 2 || counts["round"] != 2 || counts["session_state"] != 2 {
		t.Fatalf("event counts %v, want 2 gop / 2 round / 2 session_state", counts)
	}
}

// TestFleetReportKeepsCollidingSessionIDsDistinct is the regression test
// for the multi-shard Report(-1) collision: session ids are shard-local,
// so when two shards both fail their session 0, the merged fleet view
// collapses them into one entry and one error silently overwrites the
// other. FleetReport keys by (shard, id): both sessions must stay
// distinct under their shards, with exact per-shard counters.
func TestFleetReportKeepsCollidingSessionIDsDistinct(t *testing.T) {
	sink := NewRingSink(8)
	errA := errors.New("shard 0: source truncated")
	errB := errors.New("shard 1: encoder fault")
	gop := func(frames int) *core.GOPReport {
		return &core.GOPReport{Frames: make([]core.FrameReport, frames)}
	}
	round := func(shard int, joules float64, misses int) RoundEvent {
		return RoundEvent{
			Shard:   shard,
			Outcome: &core.GOPOutcome{Energy: &mpsoc.SlotReport{EnergyJ: joules, DeadlineMisses: misses}},
			Load:    core.LoadReport{Sessions: 1},
		}
	}

	// Two shards each run their shard-local session 0 to a different
	// failure, in the order the fleet would deliver it: shard 0 serves one
	// round, shard 1 two.
	sink.OnSessionStateChange(SessionEvent{Shard: 0, Session: 0, State: core.StateQueued})
	sink.OnSessionStateChange(SessionEvent{Shard: 1, Session: 0, State: core.StateQueued})
	sink.OnGOP(GOPEvent{Shard: 0, Session: 0, GOP: gop(4)})
	sink.OnRoundMetrics(round(0, 2.5, 1))
	sink.OnGOP(GOPEvent{Shard: 1, Session: 0, GOP: gop(4)})
	sink.OnRoundMetrics(round(1, 4.0, 0))
	sink.OnGOP(GOPEvent{Shard: 1, Session: 0, GOP: gop(4)})
	sink.OnRoundMetrics(round(1, 3.0, 2))
	sink.OnSessionStateChange(SessionEvent{Shard: 0, Session: 0, State: core.StateFailed, Err: errA})
	sink.OnSessionStateChange(SessionEvent{Shard: 1, Session: 0, State: core.StateFailed, Err: errB})

	fleet := sink.FleetReport()
	if fleet.Submitted != 2 || fleet.Failed != 2 {
		t.Fatalf("fleet counts submitted=%d failed=%d, want 2/2 — colliding ids collapsed",
			fleet.Submitted, fleet.Failed)
	}
	if len(fleet.Shards) != 2 {
		t.Fatalf("fleet has %d shard sub-reports, want 2", len(fleet.Shards))
	}
	s0, s1 := fleet.Shards[0], fleet.Shards[1]
	if s0 == nil || s1 == nil {
		t.Fatalf("missing shard sub-report: %v", fleet.Shards)
	}
	if got := s0.Errors[0]; got != errA {
		t.Fatalf("shard 0 session 0 error = %v, want %v", got, errA)
	}
	if got := s1.Errors[0]; got != errB {
		t.Fatalf("shard 1 session 0 error = %v, want %v — one error overwrote the other", got, errB)
	}
	// Per-shard counters are shard-scoped, not fleet-wide.
	if s0.Rounds != 1 || s1.Rounds != 2 || fleet.Rounds != 3 {
		t.Fatalf("rounds s0=%d s1=%d fleet=%d, want 1/2/3", s0.Rounds, s1.Rounds, fleet.Rounds)
	}
	if s0.FramesEncoded != 4 || s1.FramesEncoded != 8 || s0.GOPReports != 1 || s1.GOPReports != 2 {
		t.Fatalf("frames s0=%d s1=%d gops s0=%d s1=%d, want 4/8 and 1/2",
			s0.FramesEncoded, s1.FramesEncoded, s0.GOPReports, s1.GOPReports)
	}
	if s0.Energy.EnergyJ != 2.5 || s1.Energy.EnergyJ != 7.0 || fleet.Energy.EnergyJ != 9.5 {
		t.Fatalf("energy s0=%v s1=%v fleet=%v, want 2.5/7/9.5",
			s0.Energy.EnergyJ, s1.Energy.EnergyJ, fleet.Energy.EnergyJ)
	}
	if s0.Energy.DeadlineMisses != 1 || s1.Energy.DeadlineMisses != 2 {
		t.Fatalf("deadline misses s0=%d s1=%d, want 1/2",
			s0.Energy.DeadlineMisses, s1.Energy.DeadlineMisses)
	}
	if o0, o1, all := sink.Outcomes(0), sink.Outcomes(1), sink.Outcomes(-1); len(o0) != 1 || len(o1) != 2 || len(all) != 3 {
		t.Fatalf("retained outcomes s0=%d s1=%d all=%d, want 1/2/3", len(o0), len(o1), len(all))
	}

	// Report(shard) keeps its documented behavior: shard-scoped id lists,
	// fleet-wide counters.
	r0 := sink.Report(0)
	if len(r0.Failed) != 1 || r0.Errors[0] != errA || r0.Rounds != 3 {
		t.Fatalf("Report(0) changed: failed=%v errors=%v rounds=%d", r0.Failed, r0.Errors, r0.Rounds)
	}
	// And the documented -1 collision is exactly why FleetReport exists:
	// the merged view cannot tell the two session-0s apart.
	if merged := sink.Report(-1); len(merged.Errors) >= 2 {
		t.Fatalf("Report(-1) now disambiguates colliding ids (%v) — update FleetReport docs", merged.Errors)
	}
}

// TestMultiSinkFansOut: both sinks see every event.
func TestMultiSinkFansOut(t *testing.T) {
	a, b := &recordingSink{}, &recordingSink{}
	f, err := New(WithShards(1), WithSink(MultiSink(a, b)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "fan", 1, 4), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(a.gops) != 1 || len(b.gops) != len(a.gops) ||
		len(a.rounds) != 1 || len(b.rounds) != len(a.rounds) ||
		len(a.states) != 2 || len(b.states) != len(a.states) {
		t.Fatalf("sinks diverge: a=%d/%d/%d b=%d/%d/%d",
			len(a.gops), len(a.rounds), len(a.states), len(b.gops), len(b.rounds), len(b.states))
	}
}
