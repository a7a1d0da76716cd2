package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/medgen"
	"repro/internal/video"
)

// fixture is one synthetic video rendered by medgen before timing
// starts: the frames are exactly medgen's for cfg, so a source serving
// them may carry cfg as its wire spec.
type fixture struct {
	id     int
	cfg    medgen.Config
	class  string
	frames []*video.Frame
}

// renderFixtures renders every config on two goroutines (the fixture is
// not what the benchmark times, so use the host while nothing runs).
func renderFixtures(cfgs []medgen.Config) ([]*fixture, error) {
	out := make([]*fixture, len(cfgs))
	errs := make([]error, len(cfgs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				g, err := medgen.NewGenerator(cfgs[i])
				if err != nil {
					errs[i] = err
					continue
				}
				fx := &fixture{id: i, cfg: cfgs[i], class: cfgs[i].Class.String(), frames: make([]*video.Frame, cfgs[i].Frames)}
				for n := range fx.frames {
					fx.frames[n] = g.Frame(n)
				}
				out[i] = fx
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// contentPool is the class × motion grid every workload draws from, at
// one geometry. Anatomy seeds are fixed, so the pool itself does not
// depend on the workload seed — only which entries arrive, and in what
// order, does.
func contentPool(w, h, frames int) []medgen.Config {
	classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
	var out []medgen.Config
	for ci, c := range classes {
		for mi, m := range motions {
			cfg := medgen.Default()
			cfg.Width, cfg.Height, cfg.Frames = w, h, frames
			cfg.Class, cfg.Motion = c, m
			cfg.Seed = int64(1 + ci*len(motions) + mi)
			out = append(out, cfg)
		}
	}
	return out
}

// arrivalOrder returns n fixture indices: seed-shuffled passes over the
// whole pool, so every run sees a near-balanced content mix in a
// seed-specific order.
func arrivalOrder(rng *rand.Rand, pool, n int) []int {
	out := make([]int, 0, n+pool)
	for len(out) < n {
		out = append(out, rng.Perm(pool)...)
	}
	return out[:n]
}

// frameSpan is one traced FrameSource.Frame call.
type frameSpan struct {
	n          int
	start, end time.Time
}

// source serves a fixture's frames. With tracing on it records every
// Frame call; the untraced path is a slice index.
type source struct {
	fx     *fixture
	ticket int

	traced bool
	mu     sync.Mutex
	spans  []frameSpan
	// submitEnd is when the submit call that created the session
	// returned: fetches before it ran on the submitter's goroutine.
	submitEnd time.Time
}

func (s *source) Frame(n int) *video.Frame {
	if !s.traced {
		return s.fx.frames[n]
	}
	start := time.Now()
	f := s.fx.frames[n]
	end := time.Now()
	s.mu.Lock()
	s.spans = append(s.spans, frameSpan{n: n, start: start, end: end})
	s.mu.Unlock()
	return f
}

func (s *source) Len() int      { return len(s.fx.frames) }
func (s *source) FPS() float64  { return s.fx.cfg.FPS }
func (s *source) Class() string { return s.fx.class }

// specData is the medgen spec payload plus the submission's ticket,
// which the medgen binder ignores and the benchmark binder uses to find
// the request the session belongs to.
type specData struct {
	medgen.Config
	Ticket int `json:"bench_ticket"`
}

// Spec describes the source as medgen's config, so a checkpointed
// session re-binds to the same frames in any process.
func (s *source) Spec() (core.SourceSpec, error) {
	data, err := json.Marshal(specData{Config: s.fx.cfg, Ticket: s.ticket})
	if err != nil {
		return core.SourceSpec{}, err
	}
	return core.SourceSpec{Kind: dist.SourceKindMedgen, Class: s.fx.class, Data: data}, nil
}

var _ core.SpeccedSource = (*source)(nil)

// binder re-opens medgen specs onto the pre-rendered fixtures. A spec
// whose config matches no fixture is refused, never rendered: the
// benchmark must not time the generator.
type binder struct {
	byCfg  map[medgen.Config]*fixture
	traced bool
	// onBind reports each bound source to the run.
	onBind func(*source)
}

func newBinder(fxs []*fixture, traced bool, onBind func(*source)) *binder {
	b := &binder{byCfg: make(map[medgen.Config]*fixture), traced: traced, onBind: onBind}
	for _, fx := range fxs {
		b.byCfg[fx.cfg] = fx
	}
	return b
}

func (b *binder) bind(spec core.SourceSpec) (core.FrameSource, error) {
	if spec.Kind != dist.SourceKindMedgen {
		return nil, fmt.Errorf("perfbench: unknown source kind %q", spec.Kind)
	}
	var d specData
	if err := json.Unmarshal(spec.Data, &d); err != nil {
		return nil, fmt.Errorf("perfbench: medgen spec: %w", err)
	}
	fx := b.byCfg[d.Config]
	if fx == nil {
		return nil, fmt.Errorf("perfbench: spec %+v has no pre-rendered fixture", d.Config)
	}
	src := &source{fx: fx, ticket: d.Ticket, traced: b.traced}
	if b.onBind != nil {
		b.onBind(src)
	}
	return src, nil
}
