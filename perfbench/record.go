package main

import (
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
)

// sessKey names a session across the system: node (agent index, 0
// outside the dist workload), shard, and the shard-local session id.
type sessKey struct{ node, shard, id int }

// roundKey names one serving round of one shard.
type roundKey struct{ node, shard, round int }

// sessRec is everything the benchmark learns about one session.
type sessRec struct {
	seq int
	key sessKey
	fx  *fixture
	src *source
	// due is when the request was due (open loop) or submitted (closed
	// loop); latency counts from here.
	due time.Time
	// measured marks a session submitted inside the measurement window.
	measured bool

	digests  []uint64
	gopIndex []int
	firstGOP time.Time
	// firstRound is the shard round that served the first GOP.
	firstRound int
	state      core.SessionState
	terminal   bool
}

// gopFrames is one session's GOP within a round, for the trace: the
// first frame's index and each frame's summed tile encode time.
type gopFrames struct {
	first int
	enc   []time.Duration
}

// roundRec is one settled round as seen from the round hook.
type roundRec struct {
	key roundKey
	// end is when the round hook returned — the round's end for the
	// trace.
	end       time.Time
	measured  bool
	energyJ   float64 // slot energy × GOP size: the round's simulated energy
	admitted  int
	coresUsed int
	demand    int
	estErr    float64
	estTiles  int
	live      int
	misses    int
	powerW    float64
	alloc     *sched.Result
	frames    map[int]gopFrames
}

// codecTotals aggregates the delivered GOPs' tile statistics.
type codecTotals struct {
	gops, frames, tiles                int
	encode, search                     time.Duration
	bits, evals, skipped, intra, inter int
	pBlocks                            int
	psnr, kbps                         float64
}

// recorder collects sessions, GOPs and rounds from every hook and sink
// of one run. Safe for concurrent use.
type recorder struct {
	traced  bool
	gopSize int

	mu        sync.Mutex
	measuring bool
	sessions  map[sessKey]*sessRec
	order     []*sessRec
	// pending holds GOPs and states that arrived before the submitter
	// registered the session (a fast first round can beat the return of
	// the submit call).
	pendingGOPs   map[sessKey][]pendingGOP
	pendingStates map[sessKey]core.SessionState
	rounds        []*roundRec
	ladder        map[sessKey]core.LadderState
	ladderMoves   int
	codec         codecTotals
	// progress samples the process CPU time at every round that
	// delivered GOPs inside the measurement.
	progress []progressSample
	// queued holds StateQueued event times per (node, shard), for the
	// trace's idle-shard round starts.
	queued map[[2]int][]time.Time
	// firstErr is the first error a hook hit (hooks cannot return one).
	firstErr error
}

// progressSample is the cumulative delivered GOPs and process CPU time
// at one round.
type progressSample struct {
	at   time.Time
	cpu  time.Duration
	gops int
}

// chunkRates splits the samples into consecutive chunks of at least
// minGOPs delivered GOPs and returns each chunk's CPU milliseconds per
// GOP and GOPs per second. Medians over chunks keep a transient stall of
// the host from moving a whole run's figure.
func chunkRates(samples []progressSample, minGOPs int) (cpuPerGOP, gopsPerS []float64) {
	if len(samples) == 0 {
		return nil, nil
	}
	start := samples[0]
	for _, s := range samples[1:] {
		n := s.gops - start.gops
		if n < minGOPs {
			continue
		}
		cpuPerGOP = append(cpuPerGOP, ms(s.cpu-start.cpu)/float64(n))
		gopsPerS = append(gopsPerS, float64(n)/s.at.Sub(start.at).Seconds())
		start = s
	}
	return cpuPerGOP, gopsPerS
}

type pendingGOP struct {
	at    time.Time
	round int
	gop   *core.GOPReport
}

func newRecorder(gopSize int, traced bool) *recorder {
	return &recorder{
		traced:        traced,
		gopSize:       gopSize,
		sessions:      make(map[sessKey]*sessRec),
		pendingGOPs:   make(map[sessKey][]pendingGOP),
		pendingStates: make(map[sessKey]core.SessionState),
		ladder:        make(map[sessKey]core.LadderState),
		queued:        make(map[[2]int][]time.Time),
	}
}

// setMeasuring opens or closes the measurement window.
func (r *recorder) setMeasuring(on bool) {
	r.mu.Lock()
	r.measuring = on
	r.mu.Unlock()
}

// isMeasuring reports whether the measurement window is open.
func (r *recorder) isMeasuring() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.measuring
}

// register adds a submitted session and replays anything that arrived
// for it first.
func (r *recorder) register(s *sessRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.seq = len(r.order)
	s.measured = r.measuring
	r.sessions[s.key] = s
	r.order = append(r.order, s)
	for _, p := range r.pendingGOPs[s.key] {
		r.addGOPLocked(s, p.at, p.round, p.gop)
	}
	delete(r.pendingGOPs, s.key)
	if st, ok := r.pendingStates[s.key]; ok {
		s.state, s.terminal = st, true
		delete(r.pendingStates, s.key)
	}
}

func (r *recorder) addGOPLocked(s *sessRec, at time.Time, round int, gop *core.GOPReport) {
	if len(s.digests) == 0 {
		s.firstGOP = at
		s.firstRound = round
	}
	s.digests = append(s.digests, gop.Digest)
	s.gopIndex = append(s.gopIndex, gop.Index)
}

// onRound records one settled round of (node, shard) and its GOPs. The
// caller passes the returned record to closeRound when its hook returns.
func (r *recorder) onRound(node, shard int, out *core.GOPOutcome) *roundRec {
	at := time.Now()
	rr := &roundRec{
		key:      roundKey{node, shard, out.Round},
		admitted: len(out.AdmittedUsers),
		estErr:   out.EstimateErr,
		estTiles: out.EstimateTiles,
		live:     len(out.Ladder),
	}
	if out.Energy != nil {
		rr.energyJ = out.Energy.EnergyJ * float64(r.gopSize)
		rr.misses = out.Energy.DeadlineMisses
		rr.powerW = out.Energy.AvgPowerW
	}
	if a := out.Allocation; a != nil {
		rr.coresUsed = a.CoresUsed
		for _, d := range a.DemandCores {
			rr.demand += d
		}
		if r.traced {
			rr.alloc = a
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rr.measured = r.measuring
	r.rounds = append(r.rounds, rr)
	if r.traced {
		rr.frames = make(map[int]gopFrames, len(out.GOPs))
	}
	for id, gop := range out.GOPs {
		key := sessKey{node, shard, id}
		if s := r.sessions[key]; s != nil {
			r.addGOPLocked(s, at, out.Round, gop)
		} else {
			r.pendingGOPs[key] = append(r.pendingGOPs[key], pendingGOP{at, out.Round, gop})
		}
		if r.measuring {
			r.addCodecLocked(gop)
		}
		if r.traced && len(gop.Frames) > 0 {
			gf := gopFrames{first: gop.Frames[0].Frame}
			for _, fr := range gop.Frames {
				gf.enc = append(gf.enc, fr.EncodeTime)
			}
			rr.frames[id] = gf
		}
	}
	if r.measuring && len(out.GOPs) > 0 {
		r.progress = append(r.progress, progressSample{at: at, cpu: cpuTime(), gops: r.codec.gops})
	}
	for id, ls := range out.Ladder {
		key := sessKey{node, shard, id}
		if r.ladder[key] != ls {
			r.ladderMoves++
			r.ladder[key] = ls
		}
	}
	r.ladderMoves += len(out.TimedOut)
	return rr
}

// closeRound stamps the end of the round hook — the round's boundary.
func (r *recorder) closeRound(rr *roundRec) {
	end := time.Now()
	r.mu.Lock()
	rr.end = end
	r.mu.Unlock()
}

func (r *recorder) addCodecLocked(gop *core.GOPReport) {
	c := &r.codec
	c.gops++
	c.psnr += gop.MeanPSNR
	c.kbps += gop.MeanKbps
	if gop.Grid != nil {
		c.tiles += len(gop.Grid.Tiles)
	}
	for _, fr := range gop.Frames {
		c.frames++
		c.bits += fr.Bits
		for _, ts := range fr.Tiles {
			c.encode += ts.EncodeTime
			c.search += ts.SearchTime
			c.evals += ts.SearchEvals
			c.skipped += ts.SkippedBlocks
			c.intra += ts.IntraBlocks
			c.inter += ts.InterBlocks
			if fr.Type == codec.FrameP {
				c.pBlocks += ts.IntraBlocks + ts.InterBlocks
			}
		}
	}
}

// onState records one lifecycle transition.
func (r *recorder) onState(node, shard, id int, state core.SessionState) {
	at := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if state == core.StateQueued {
		if r.traced {
			k := [2]int{node, shard}
			r.queued[k] = append(r.queued[k], at)
		}
		return
	}
	key := sessKey{node, shard, id}
	if s := r.sessions[key]; s != nil {
		s.state, s.terminal = state, true
		return
	}
	r.pendingStates[key] = state
}

// snapshot returns the registered sessions and rounds.
func (r *recorder) snapshot() ([]*sessRec, []*roundRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*sessRec(nil), r.order...), append([]*roundRec(nil), r.rounds...)
}

// finished counts the sessions that have ended.
func (r *recorder) finished() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.order {
		if s.terminal {
			n++
		}
	}
	return n
}

// allTerminal reports whether every registered session has ended.
func (r *recorder) allTerminal() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.order {
		if !s.terminal {
			return false
		}
	}
	return true
}

// stateSink feeds a fleet's lifecycle events into the recorder.
type stateSink struct {
	serve.NopSink
	rec  *recorder
	node int
}

func (s *stateSink) OnSessionStateChange(e serve.SessionEvent) {
	s.rec.onState(s.node, e.Shard, e.Session, e.State)
}

// fail keeps the first error raised inside a hook.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// err returns the first hook error.
func (r *recorder) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstErr
}
