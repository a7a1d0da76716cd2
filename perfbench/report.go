package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mpsoc"
)

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// heapSample pairs the live heap with the sessions finished so far.
type heapSample struct {
	finished int
	heapMB   float64
}

// sampleHeap records the live heap as of the last GC every 250 ms until
// the returned stop function is called — no collection is forced, so
// the sampling does not perturb the run.
func (pr *phaseResult) sampleHeap() func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			finished := pr.rec.finished()
			pr.heapSamples = append(pr.heapSamples, heapSample{finished, float64(s[0].Value.Uint64()) / (1 << 20)})
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// sessionLatencies returns the first-GOP latency (ms) of every measured
// session that delivered one, and the measured session counts.
func sessionLatencies(pr *phaseResult) (lat []float64, measured, completed, sloMet int) {
	slo := time.Duration(float64(pr.wl.session.Codec.GOPSize) / 24 * float64(time.Second))
	sessions, _ := pr.rec.snapshot()
	for _, s := range sessions {
		if !s.measured {
			continue
		}
		measured++
		ok := s.state == core.StateCompleted && s.terminal
		if ok {
			completed++
		}
		if len(s.digests) == 0 {
			continue
		}
		l := s.firstGOP.Sub(s.due)
		lat = append(lat, ms(l))
		if ok && l <= slo {
			sloMet++
		}
	}
	return lat, measured, completed, sloMet
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(pr *phaseResult) *result {
	lat, measured, completed, sloMet := sessionLatencies(pr)
	_, rounds := pr.rec.snapshot()
	var energy float64
	for _, r := range rounds {
		if r.measured {
			energy += r.energyJ
		}
	}
	c := pr.rec.codec
	gops := float64(c.gops)
	pr.rec.mu.Lock()
	cpu, rate := chunkRates(pr.rec.progress, chunkGOPs)
	pr.rec.mu.Unlock()
	if len(cpu) == 0 {
		// Too little work for one chunk: fall back to the whole window.
		cpu = []float64{ms(pr.cpu) / gops}
		rate = []float64{gops / pr.tEnd.Sub(pr.t0).Seconds()}
	}
	m := map[string]metric{
		"gops_per_s":           {percentile(rate, 1-calmQuantile), "1/s"},
		"cpu_ms_per_gop":       {percentile(cpu, calmQuantile), "ms"},
		"slo_met_frac":         {frac(sloMet, measured), "frac"},
		"served_frac":          {frac(completed, measured), "frac"},
		"psnr_db":              {c.psnr / gops, "dB"},
		"kbps":                 {c.kbps / gops, "kbps"},
		"sim_energy_j_per_gop": {energy / gops, "J"},
		"heap_mb":              {pr.heapMB, "MB"},
		"setup_s":              {medianSeconds(pr.setup), "s"},
	}
	latency := map[string]metric{
		"first_gop_p50_ms": {percentile(windowStats(lat, func(w []float64) float64 { return percentile(w, 0.5) }), calmQuantile), "ms"},
		"first_gop_p95_ms": {percentile(windowStats(lat, func(w []float64) float64 { return tailPercentile(w, 0.95) }), calmQuantile), "ms"},
	}
	return &result{Correct: true, Attempted: measured, Failed: measured - completed, Metrics: m, Latency: latency}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer computes the traced phase's per-layer metrics. plainE2E holds
// the end-to-end metrics of the same run's untraced phase, for the
// tracing overhead.
func perLayer(pr *phaseResult, plainE2E *result) (*result, error) {
	sessions, rounds := pr.rec.snapshot()
	split := decompose(pr, sessions, rounds)
	var wall time.Duration
	for _, w := range split.walls {
		wall += w
	}
	var sum time.Duration
	for _, d := range split.self {
		sum += d
	}
	if wall <= 0 {
		return nil, fmt.Errorf("trace: no measured round to decompose")
	}
	if sum != wall {
		return nil, fmt.Errorf("trace: layer self times sum to %v, round wall time is %v", sum, wall)
	}
	share := func(l string) float64 { return float64(split.self[l]) / float64(wall) }
	if s := share(layerSource); s >= maxSourceShare {
		return nil, fmt.Errorf("fixture guard: FrameSource.Frame takes %.1f%% of round wall time (limit %.0f%%)", 100*s, 100*maxSourceShare)
	}

	c := pr.rec.codec
	gops := float64(c.gops)
	frames := float64(c.frames)
	var walls, queueWait []float64
	for _, w := range split.walls {
		walls = append(walls, ms(w))
	}
	for _, s := range sessions {
		if start, ok := split.starts[roundKey{s.key.node, s.key.shard, s.firstRound}]; ok && s.measured && len(s.digests) > 0 {
			queueWait = append(queueWait, ms(start.Sub(s.due)))
		}
	}

	// Round-level aggregates of the measured rounds.
	var nRounds, admitted, coresUsed, demand, misses float64
	var estErr float64
	var estTiles int
	var peak float64
	var sim []float64
	platform := mpsoc.XeonE5_2667V4()
	slot := time.Second / 24
	for _, r := range rounds {
		if !r.measured {
			continue
		}
		nRounds++
		admitted += float64(r.admitted)
		coresUsed += float64(r.coresUsed)
		demand += float64(r.demand)
		misses += float64(r.misses)
		estErr += r.estErr * float64(r.estTiles)
		estTiles += r.estTiles
		if r.powerW > peak {
			peak = r.powerW
		}
		if r.alloc != nil && len(sim) < 200 {
			start := time.Now()
			if _, err := platform.SimulateSlot(r.alloc.Plans, slot); err != nil {
				return nil, fmt.Errorf("mpsoc replay: %w", err)
			}
			sim = append(sim, us(time.Since(start)))
		}
	}

	// Standalone stage A–D1 costs of the served fixtures.
	var prep, est []float64
	for _, fx := range pr.fx {
		for _, d := range pr.refs[fx].prepare {
			prep = append(prep, us(d))
		}
		for _, d := range pr.refs[fx].estimate {
			est = append(est, us(d))
		}
	}

	rt := func(f func(runtimeSample) float64) float64 { return f(pr.rt1) - f(pr.rt0) }
	var hx, hy []float64
	for _, h := range pr.heapSamples {
		hx = append(hx, float64(h.finished))
		hy = append(hy, h.heapMB)
	}
	tr := pr.tr
	tr.mu.Lock()
	allocCalls, allocTime, sinkEvents := tr.allocCalls, tr.allocTime, tr.sinkEvents
	serveSubmit := append([]time.Duration(nil), tr.serveSubmit...)
	tr.mu.Unlock()

	var serveSub, distSub []float64
	if pr.wl.name == "dist" {
		for _, d := range serveSubmit {
			serveSub = append(serveSub, us(d))
		}
		for _, d := range pr.submitLat {
			distSub = append(distSub, ms(d))
		}
	} else if pr.wl.name == "churn" {
		for _, d := range pr.submitLat {
			serveSub = append(serveSub, us(d))
		}
	}
	var scrape []float64
	for _, d := range pr.scrapes {
		scrape = append(scrape, ms(d))
	}
	var hbTime []float64
	for _, d := range pr.dist.heartbeatTime {
		hbTime = append(hbTime, ms(d))
	}
	var late []float64
	for _, d := range pr.lateness {
		late = append(late, ms(d))
	}
	traced := endToEnd(pr)
	overhead := traced.Metrics["cpu_ms_per_gop"].Value/plainE2E.Metrics["cpu_ms_per_gop"].Value - 1

	_, measured, _, _ := sessionLatencies(pr)
	m := map[string]metric{
		"codec.encode_ms_per_frame":            {ms(c.encode) / frames, "ms"},
		"codec.me_share":                       {ratio(float64(c.search), float64(c.encode)), "frac"},
		"codec.bits_per_frame":                 {float64(c.bits) / frames, "bits"},
		"codec.skip_share":                     {ratio(float64(c.skipped), float64(4*(c.intra+c.inter))), "frac"},
		"codec.intra_share":                    {ratio(float64(c.intra), float64(c.intra+c.inter)), "frac"},
		"codec.wall_share":                     {share(layerCodec), "frac"},
		"motion.evals_per_block":               {ratio(float64(c.evals), float64(c.pBlocks)), "count"},
		"analysis.prepare_us_per_gop":          {mean(prep), "us"},
		"analysis.wall_share":                  {share(layerAnalysis), "frac"},
		"tiling.tiles_per_gop":                 {float64(c.tiles) / gops, "count"},
		"workload.estimate_us_per_round":       {mean(est) * ratio(admitted, nRounds), "us"},
		"core.estimate_err":                    {ratio(estErr, float64(estTiles)), "frac"},
		"sched.alloc_us_per_call":              {ratio(us(allocTime), float64(allocCalls)), "us"},
		"sched.calls_per_round":                {ratio(float64(allocCalls), nRounds), "count"},
		"sched.cores_used":                     {ratio(coresUsed, nRounds), "count"},
		"sched.demand_cores":                   {ratio(demand, nRounds), "count"},
		"sched.wall_share":                     {share(layerSched), "frac"},
		"mpsoc.simulate_us_per_round":          {mean(sim), "us"},
		"mpsoc.deadline_misses":                {misses, "count"},
		"mpsoc.peak_power_w":                   {peak, "W"},
		"core.round_ms_p50":                    {percentile(walls, 0.5), "ms"},
		"core.round_ms_p95":                    {tailPercentile(walls, 0.95), "ms"},
		"core.rounds":                          {float64(len(walls)), "count"},
		"core.sessions_per_round":              {ratio(admitted, nRounds), "count"},
		"core.queue_wait_ms_p50":               {percentile(queueWait, 0.5), "ms"},
		"core.nonencode_cpu_share":             {1 - float64(c.encode)/float64(pr.cpu), "frac"},
		"core.source_share":                    {share(layerSource), "frac"},
		"core.self_share":                      {share(layerCore), "frac"},
		"core.ladder_moves":                    {float64(pr.rec.ladderMoves), "count"},
		"serve.submit_us_p50":                  {percentile(serveSub, 0.5), "us"},
		"serve.submit_us_p95":                  {tailPercentile(serveSub, 0.95), "us"},
		"serve.util_skew":                      {mean(pr.utilSkew), "ratio"},
		"serve.sink_events_per_gop":            {float64(sinkEvents) / gops, "count"},
		"serve.sink_share":                     {share(layerSink), "frac"},
		"serve.jsonl_bytes_per_gop":            {float64(pr.jsonl.bytes) / gops, "bytes"},
		"serve.jsonl_dropped":                  {float64(pr.jsonl.dropped), "count"},
		"metrics.series":                       {pr.series, "count"},
		"metrics.dropped_series":               {pr.dropped, "count"},
		"metrics.scrape_ms":                    {mean(scrape), "ms"},
		"dist.submit_ms_p50":                   {percentile(distSub, 0.5), "ms"},
		"dist.submit_ms_p95":                   {tailPercentile(distSub, 0.95), "ms"},
		"dist.heartbeat_bytes_p50":             {percentile(pr.dist.heartbeatBytes, 0.5), "bytes"},
		"dist.heartbeat_ms_p95":                {tailPercentile(hbTime, 0.95), "ms"},
		"dist.checkpoint_bytes_per_session":    {float64(pr.dist.checkpointB) / float64(max(measured, 1)), "bytes"},
		"dist.home_share":                      {ratio(float64(pr.dist.home), float64(pr.dist.routed)), "frac"},
		"runtime.alloc_mb_per_gop":             {rt(func(s runtimeSample) float64 { return s.allocBytes }) / (1 << 20) / gops, "MB"},
		"runtime.mallocs_per_gop":              {rt(func(s runtimeSample) float64 { return s.allocObjects }) / gops, "count"},
		"runtime.gc_cpu_frac":                  {ratio(rt(func(s runtimeSample) float64 { return s.gcCPU }), rt(func(s runtimeSample) float64 { return s.totalCPU })), "frac"},
		"runtime.heap_mb_per_finished_session": {slope(hx, hy), "MB"},
		"runtime.goroutines_end":               {float64(pr.goroutinesEnd), "count"},
		"loadgen.late_ms_p99":                  {percentile(late, 0.99), "ms"},
		"trace.overhead_frac":                  {overhead, "frac"},
	}
	for n, v := range plainE2E.Latency {
		m[n] = v
	}
	return &result{Correct: true, Attempted: traced.Attempted, Failed: traced.Failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// decompose splits every measured round of every shard into layer self
// times (selfTimes over the round's child spans).
func decompose(pr *phaseResult, sessions []*sessRec, rounds []*roundRec) roundSplit {
	split := roundSplit{self: map[string]time.Duration{}, starts: map[roundKey]time.Time{}}
	// Per-shard rounds in order.
	byShard := map[[2]int][]*roundRec{}
	for _, r := range rounds {
		k := [2]int{r.key.node, r.key.shard}
		byShard[k] = append(byShard[k], r)
	}
	// Per-session encode times by frame, then per-shard spans.
	spans := map[[2]int][]span{}
	pr.tr.mu.Lock()
	for k, s := range pr.tr.spans {
		spans[k] = append(spans[k], s...)
	}
	pr.tr.mu.Unlock()
	prepare := map[*fixture]time.Duration{}
	for fx, ref := range pr.refs {
		var sum time.Duration
		for _, d := range ref.prepare {
			sum += d
		}
		if len(ref.prepare) > 0 {
			prepare[fx] = sum / time.Duration(len(ref.prepare))
		}
	}
	for _, s := range sessions {
		if s.src == nil {
			continue
		}
		enc := map[int]time.Duration{}
		for _, r := range byShard[[2]int{s.key.node, s.key.shard}] {
			if gf, ok := r.frames[s.key.id]; ok {
				for i, d := range gf.enc {
					enc[gf.first+i] = d
				}
			}
		}
		k := [2]int{s.key.node, s.key.shard}
		spans[k] = append(spans[k], sessionSpans(s.src, enc, prepare[s.fx], s.src.submitEnd)...)
	}
	for k, rs := range byShard {
		sort.Slice(rs, func(i, j int) bool { return rs[i].key.round < rs[j].key.round })
		queued := append([]time.Time(nil), pr.rec.queued[k]...)
		sort.Slice(queued, func(i, j int) bool { return queued[i].Before(queued[j]) })
		ss := spans[k]
		sort.Slice(ss, func(i, j int) bool { return ss[i].start.Before(ss[j].start) })
		var longest time.Duration
		for _, sp := range ss {
			longest = max(longest, sp.end.Sub(sp.start))
		}
		for i := 1; i < len(rs); i++ {
			prev, cur := rs[i-1], rs[i]
			if !cur.measured || cur.key.round != prev.key.round+1 {
				continue
			}
			start := prev.end
			if prev.live == 0 {
				// The shard went idle after the previous round: this
				// round began when the next session arrived.
				j := sort.Search(len(queued), func(j int) bool { return queued[j].After(prev.end) })
				if j < len(queued) && queued[j].Before(cur.end) {
					start = queued[j]
				}
			}
			split.starts[cur.key] = start
			split.walls = append(split.walls, cur.end.Sub(start))
			lo := sort.Search(len(ss), func(j int) bool { return !ss[j].start.Before(start.Add(-longest)) })
			hi := sort.Search(len(ss), func(j int) bool { return !ss[j].start.Before(cur.end) })
			for l, d := range selfTimes(start, cur.end, ss[lo:hi]) {
				split.self[l] += d
			}
		}
	}
	return split
}
