package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/sched"
)

// rosterRate is the roster workload's fixed arrival rate in sessions/s:
// about half of the measured capacity of the 2-core reference host
// (README.md).
const rosterRate = 4.0

// rosterWorkload: an open loop of long 320×240 sessions on one
// core.Server with admission and calibration on. Sessions arrive in
// groups of four, one per body-part class, so each group is served
// concurrently, four sessions per round; encode does nearly all the
// work.
func rosterWorkload() *scenario {
	cfg := core.DefaultSessionConfig()
	return &scenario{
		name:    "roster",
		pool:    contentPool(320, 240, 6*cfg.Codec.GOPSize),
		session: cfg,
		rate:    rosterRate,
		build:   buildRoster,
	}
}

// rosterClasses is the number of body-part classes — and of motions —
// in the class-major content pool, and the size of an arrival group.
const rosterClasses = 4

type roster struct {
	p      *phase
	srv    *core.Server
	cancel context.CancelFunc
	done   chan struct{}
	runErr error
}

func buildRoster(p *phase) (instance, error) {
	r := &roster{p: p, done: make(chan struct{})}
	alloc := sched.AllocateContentAware
	if p.traced {
		alloc = p.tr.allocator(0, 0, sched.AllocateContentAware)
	}
	srv, err := core.NewServer(core.ServerConfig{
		Platform:    mpsoc.XeonE5_2667V4(),
		FPS:         24,
		Allocator:   core.AllocatorFunc(alloc),
		Calibration: core.CalibrationConfig{Enabled: true},
		Admission:   core.AdmissionConfig{Enabled: true},
		OnRound: func(out *core.GOPOutcome) {
			p.rec.closeRound(p.rec.onRound(0, 0, out))
		},
		OnSessionState: func(id int, state core.SessionState, _ error) {
			p.rec.onState(0, 0, id, state)
		},
	})
	if err != nil {
		return nil, err
	}
	r.srv = srv
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() {
		defer close(r.done)
		_, r.runErr = srv.Run(ctx)
	}()
	// Warm-up: one group, served to completion, so each class LUT has
	// seen the content and the calibration loop has run before the
	// window opens. Class c plays motion c whatever the seed, so the
	// set-up time does not depend on the seed.
	pool := len(p.fx) / rosterClasses
	for c := 0; c < rosterClasses; c++ {
		if err := r.submit(c*pool+c, time.Now()); err != nil {
			return nil, err
		}
	}
	if err := waitTerminal(p.rec, drainTimeout); err != nil {
		return nil, err
	}
	return r, nil
}

// submit sends fixture fi to the server; due is when it was scheduled.
func (r *roster) submit(fi int, due time.Time) error {
	src := &source{fx: r.p.fx[fi], traced: r.p.traced}
	start := time.Now()
	sess, err := r.srv.Submit(src, r.p.wl.session)
	end := time.Now()
	if err != nil {
		return err
	}
	src.submitEnd = end
	if r.p.traced {
		r.p.tr.add(0, 0, span{layerSubmit, start, end})
	}
	r.p.rec.register(&sessRec{key: sessKey{0, 0, sess.ID}, fx: src.fx, src: src, due: due})
	return nil
}

// load runs the open-loop generator on this goroutine until end: at
// every slot a group of one session per class arrives.
func (r *roster) load(end time.Time) error {
	p := r.p
	sch := schedule{start: time.Now(), interval: time.Duration(float64(rosterClasses) * float64(time.Second) / p.wl.rate)}
	groups := rosterGroups(p.rng, sch.count(end))
	pool := len(p.fx) / rosterClasses
	for i, motions := range groups {
		due := sch.due(i)
		time.Sleep(time.Until(due))
		for c, m := range motions {
			p.lateness = append(p.lateness, lateness(due, time.Now()))
			if err := r.submit(c*pool+m, due); err != nil {
				return fmt.Errorf("group %d: %w", i, err)
			}
		}
	}
	return nil
}

// rosterGroups returns n arrival groups, each the motion of every class.
// Every pass of four groups is a seed-drawn Latin square: each class
// plays each motion once per pass, and each group holds every motion
// once, so even a window that ends mid-pass serves a balanced mix.
func rosterGroups(rng *rand.Rand, n int) [][]int {
	out := make([][]int, 0, n+rosterClasses)
	for len(out) < n {
		motion, row := rng.Perm(rosterClasses), rng.Perm(rosterClasses)
		for g := 0; g < rosterClasses; g++ {
			group := make([]int, rosterClasses)
			for c := range group {
				group[c] = motion[(row[g]+c)%rosterClasses]
			}
			out = append(out, group)
		}
	}
	return out[:n]
}

func (r *roster) drain() error {
	if err := waitTerminal(r.p.rec, drainTimeout); err != nil {
		return err
	}
	select {
	case <-r.done:
		return fmt.Errorf("roster: server stopped: %v", r.runErr)
	default:
		return nil
	}
}

func (r *roster) close() {
	r.srv.Close()
	select {
	case <-r.done:
	case <-time.After(drainTimeout):
	}
	r.cancel()
	<-r.done
}
