package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// reference is a fixture's standalone encode: the GOP digest chain every
// served session of that fixture must reproduce, plus the stage A–D1
// costs timed on the same frames.
type reference struct {
	digests []uint64
	// prepare and estimate time Session.PrepareForEstimation and
	// Session.EstimateThreads once per GOP.
	prepare, estimate []time.Duration
}

// encodeReference runs one fixture through a standalone core.Session
// with cfg — outside any timed window.
func encodeReference(fx *fixture, cfg core.SessionConfig) (*reference, error) {
	sess, err := core.NewSession(0, &source{fx: fx}, cfg, workload.NewLUT())
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	for !sess.Finished() {
		t0 := time.Now()
		if err := sess.PrepareForEstimation(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := sess.EstimateThreads(); err != nil {
			return nil, err
		}
		t2 := time.Now()
		gop, err := sess.EncodeGOP()
		if err != nil {
			return nil, err
		}
		ref.prepare = append(ref.prepare, t1.Sub(t0))
		ref.estimate = append(ref.estimate, t2.Sub(t1))
		ref.digests = append(ref.digests, gop.Digest)
	}
	return ref, nil
}

// references encodes every fixture the run may serve, on two
// goroutines (nothing is being timed yet).
func references(fxs []*fixture, cfg core.SessionConfig) (map[*fixture]*reference, error) {
	refs := make([]*reference, len(fxs))
	errs := make([]error, len(fxs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = encodeReference(fxs[i], cfg)
			}
		}()
	}
	for i := range fxs {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[*fixture]*reference, len(fxs))
	for i, fx := range fxs {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference encode of fixture %d: %w", fx.id, errs[i])
		}
		out[fx] = refs[i]
	}
	return out, nil
}

// gate checks the run's outputs: every session reached a terminal
// state (none lost), every completed session delivered all its GOPs in
// order, and each delivered GOP digest equals the standalone encode of
// the same source. It returns one message per violation.
func gate(sessions []*sessRec, refs map[*fixture]*reference) []string {
	var bad []string
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].seq < sessions[j].seq })
	for _, s := range sessions {
		ref := refs[s.fx]
		if ref == nil {
			bad = append(bad, fmt.Sprintf("session %v: no reference for fixture %d", s.key, s.fx.id))
			continue
		}
		if !s.terminal {
			bad = append(bad, fmt.Sprintf("session %v (fixture %d): lost — never reached a terminal state", s.key, s.fx.id))
			continue
		}
		if s.state == core.StateCompleted && len(s.digests) != len(ref.digests) {
			bad = append(bad, fmt.Sprintf("session %v (fixture %d): completed with %d of %d GOPs", s.key, s.fx.id, len(s.digests), len(ref.digests)))
		}
		for i, d := range s.digests {
			if s.gopIndex[i] != i {
				bad = append(bad, fmt.Sprintf("session %v: GOP %d delivered as index %d", s.key, i, s.gopIndex[i]))
				break
			}
			if i >= len(ref.digests) || d != ref.digests[i] {
				bad = append(bad, fmt.Sprintf("session %v (fixture %d): GOP %d digest %x differs from the standalone encode", s.key, s.fx.id, i, d))
				break
			}
		}
	}
	return bad
}
