package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Layer names of the round decomposition.
const (
	layerSource   = "source"
	layerCodec    = "codec"
	layerAnalysis = "analysis"
	layerSched    = "sched"
	layerSink     = "sink"
	layerSubmit   = "submit"
	layerCore     = "core"
)

// span is one timed call into a layer. Spans are kept in memory and
// reduced when the run ends.
type span struct {
	layer      string
	start, end time.Time
}

// selfTimes splits the interval [a, b) among the spans that overlap it:
// at every instant the time goes in equal parts to the spans active
// then, and to layerCore (the caller's own self time) when none is.
// Concurrent spans — parallel encodes of different sessions — therefore
// share the wall time they overlap instead of being counted twice, and
// the returned times always add up to b − a.
func selfTimes(a, b time.Time, spans []span) map[string]time.Duration {
	type edge struct {
		at    time.Time
		delta int
		idx   int
	}
	out := map[string]time.Duration{}
	if !b.After(a) {
		return out
	}
	var edges []edge
	for i, s := range spans {
		st, en := s.start, s.end
		if st.Before(a) {
			st = a
		}
		if en.After(b) {
			en = b
		}
		if !en.After(st) {
			continue
		}
		edges = append(edges, edge{st, +1, i}, edge{en, -1, i})
	}
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	active := map[int]bool{}
	shares := map[string]float64{}
	prev := a
	for _, e := range edges {
		if d := e.at.Sub(prev); d > 0 {
			if len(active) == 0 {
				shares[layerCore] += float64(d)
			} else {
				part := float64(d) / float64(len(active))
				for i := range active {
					shares[spans[i].layer] += part
				}
			}
		}
		prev = e.at
		if e.delta > 0 {
			active[e.idx] = true
		} else {
			delete(active, e.idx)
		}
	}
	if d := b.Sub(prev); d > 0 {
		shares[layerCore] += float64(d)
	}
	// Round to nanoseconds so the parts still sum exactly to b − a: the
	// rounding residue goes to the core's own time.
	var sum time.Duration
	for l, v := range shares {
		out[l] = time.Duration(v)
		sum += out[l]
	}
	out[layerCore] += b.Sub(a) - sum
	return out
}

// tracer collects the spans of one traced run, keyed by the shard
// (node, shard) whose serving goroutine made the call.
type tracer struct {
	mu    sync.Mutex
	spans map[[2]int][]span
	// allocCalls counts allocator invocations; sinkEvents counts sink
	// deliveries while the recorder measures.
	allocCalls int
	allocTime  time.Duration
	sinkEvents int
	// serveSubmit holds the fleet-level submit durations measured from
	// the outside (SubmitWith in churn, binder-to-placement in dist).
	serveSubmit []time.Duration
	rec         *recorder
}

func newTracer(rec *recorder) *tracer {
	return &tracer{spans: make(map[[2]int][]span), rec: rec}
}

func (t *tracer) add(node, shard int, s span) {
	t.mu.Lock()
	t.spans[[2]int{node, shard}] = append(t.spans[[2]int{node, shard}], s)
	t.mu.Unlock()
}

// measuring reports whether the recorder's window is open.
func (t *tracer) measuring() bool { return t.rec.isMeasuring() }

// allocator wraps a stage-D2 policy so every call is a sched span of
// the given shard.
func (t *tracer) allocator(node, shard int, fn sched.Allocator) sched.Allocator {
	return func(in sched.Input) (*sched.Result, error) {
		start := time.Now()
		res, err := fn(in)
		end := time.Now()
		t.add(node, shard, span{layerSched, start, end})
		if t.measuring() {
			t.mu.Lock()
			t.allocCalls++
			t.allocTime += end.Sub(start)
			t.mu.Unlock()
		}
		return res, err
	}
}

// tracedRegistry registers one wrapped content-aware allocator per
// shard of a fleet and returns the options selecting them.
func (t *tracer) tracedRegistry(node, shards int) []serve.Option {
	reg := sched.NewRegistry()
	opts := []serve.Option{serve.WithRegistry(reg)}
	for i := 0; i < shards; i++ {
		name := "traced-" + string(rune('a'+i))
		if err := reg.Register(name, "Algorithm 2, timed", t.allocator(node, i, sched.AllocateContentAware)); err != nil {
			panic(err) // names are distinct by construction
		}
		if i == 0 {
			opts = append(opts, serve.WithAllocator(name))
		} else {
			opts = append(opts, serve.WithShardAllocator(i, name))
		}
	}
	return opts
}

// sinkTracer times every delivery into the wrapped sink. Round-scoped
// events become sink spans of their shard; the submit-time events
// (StateQueued, placement) run on the submitter's goroutine and are not
// part of any round.
type sinkTracer struct {
	inner serve.Sink
	t     *tracer
	node  int
	// placed is called with the placement event's time (dist uses it
	// to close the binder-to-placement submit span).
	placed func(at time.Time)
}

func (s *sinkTracer) timed(shard int, roundScoped bool, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	if roundScoped {
		s.t.add(s.node, shard, span{layerSink, start, end})
	}
	if s.t.measuring() {
		s.t.mu.Lock()
		s.t.sinkEvents++
		s.t.mu.Unlock()
	}
}

func (s *sinkTracer) OnGOP(e serve.GOPEvent) {
	s.timed(e.Shard, true, func() { s.inner.OnGOP(e) })
}

func (s *sinkTracer) OnSessionStateChange(e serve.SessionEvent) {
	s.timed(e.Shard, e.State != core.StateQueued, func() { s.inner.OnSessionStateChange(e) })
}

func (s *sinkTracer) OnSessionPlaced(e serve.PlacementEvent) {
	s.timed(e.Shard, false, func() { s.inner.OnSessionPlaced(e) })
	if s.placed != nil {
		s.placed(time.Now())
	}
}

func (s *sinkTracer) OnRoundMetrics(e serve.RoundEvent) {
	s.timed(e.Shard, true, func() { s.inner.OnRoundMetrics(e) })
}

func (s *sinkTracer) OnShardAdded(e serve.ShardEvent) {
	s.timed(e.Shard, false, func() { s.inner.OnShardAdded(e) })
}

func (s *sinkTracer) OnShardRemoved(e serve.ShardEvent) {
	s.timed(e.Shard, false, func() { s.inner.OnShardRemoved(e) })
}

func (s *sinkTracer) OnSessionMigrated(e serve.MigrationEvent) {
	s.timed(e.ToShard, false, func() { s.inner.OnSessionMigrated(e) })
}

func (s *sinkTracer) OnSessionRebalanced(e serve.MigrationEvent) {
	s.timed(e.FromShard, true, func() { s.inner.OnSessionRebalanced(e) })
}

// roundSplit is the decomposition of every measured round.
type roundSplit struct {
	walls []time.Duration
	self  map[string]time.Duration
	// starts maps each decomposed round to its start time.
	starts map[roundKey]time.Time
}

// sessionSpans turns one session's traced Frame calls into source,
// codec and analysis spans. Consecutive fetches of the same frame mean
// stages A–C fetched it first (admission of a new session, or the
// estimate-ahead of the next GOP) and the encoder fetched it last. A
// frame's encode runs from its fetch to the session's next fetch; the
// final frame of a finished session has no next fetch, so its span is
// its tile encode time scaled by the wall/encode ratio of the session's
// earlier frames. Stage A–C work after a fetch is not observable from the
// outside; it is charged the standalone prepare cost of the same
// fixture.
func sessionSpans(src *source, encTime map[int]time.Duration, prepare time.Duration, after time.Time) []span {
	src.mu.Lock()
	calls := append([]frameSpan(nil), src.spans...)
	src.mu.Unlock()
	var kept []frameSpan
	for _, c := range calls {
		if !c.start.Before(after) {
			kept = append(kept, c)
		}
	}
	var out []span
	var ratioWall, ratioEnc time.Duration
	for i, c := range kept {
		out = append(out, span{layerSource, c.start, c.end})
		encoded := i+1 >= len(kept) || kept[i+1].n != c.n
		if !encoded {
			// A stage A–C fetch: the analysis runs until the encoder's
			// fetch of the same frame at the latest.
			end := c.end.Add(prepare)
			if nx := kept[i+1].start; end.After(nx) {
				end = nx
			}
			out = append(out, span{layerAnalysis, c.end, end})
			continue
		}
		et, ok := encTime[c.n]
		if !ok {
			// Fetched but never encoded: the estimate-ahead of a GOP
			// the run did not serve.
			out = append(out, span{layerAnalysis, c.end, c.end.Add(prepare)})
			continue
		}
		if i+1 < len(kept) {
			out = append(out, span{layerCodec, c.end, kept[i+1].start})
			ratioWall += kept[i+1].start.Sub(c.end)
			ratioEnc += et
			continue
		}
		d := et
		if ratioEnc > 0 {
			d = time.Duration(float64(et) * float64(ratioWall) / float64(ratioEnc))
		}
		out = append(out, span{layerCodec, c.end, c.end.Add(d)})
	}
	return out
}
