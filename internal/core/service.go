package core

import (
	"context"
	"fmt"

	"repro/internal/mpsoc"
)

// ServiceReport summarizes a Run: the service-level view the ROADMAP's
// heavy-traffic north star cares about, where GOPOutcome is the per-round
// view.
type ServiceReport struct {
	// Rounds is the number of GOP rounds served.
	Rounds int
	// Submitted counts every session that entered the arrival queue.
	Submitted int
	// Completed, Rejected and Failed list the session ids per terminal
	// state (ascending). Sessions still queued when Run returned early
	// (cancellation, round error) appear in none of them.
	Completed, Rejected, Failed []int
	// Migrated lists sessions that left this shard through
	// ExportSessions (ascending donor ids); they live on under new ids
	// on the shards that imported them.
	Migrated []int
	// Imported counts sessions adopted from other shards (Import) —
	// they are included in Submitted, so fleet-wide unique sessions are
	// the sum over shards of Submitted − Imported.
	Imported int
	// FramesEncoded and GOPReports count the work actually delivered
	// across all rounds; a lossless service has GOPReports equal to the
	// sum of its completed sessions' GOP counts.
	FramesEncoded int
	GOPReports    int
	// Energy aggregates the per-round platform simulations: total energy,
	// deadline misses, carry-over and peak power.
	Energy mpsoc.Totals
	// Errors holds the terminal error of every failed session.
	Errors map[int]error
}

// MeanEstimateErr returns the tile-weighted mean relative stage-D1
// estimation error over the rounds in outs with index ≥ fromRound (0
// covers them all) — outs being the rounds an observer kept, from
// ServerConfig.OnRound or serve.RingSink.Outcomes. The second return is
// the number of measured tiles behind the mean; 0 tiles yields (0, 0).
func MeanEstimateErr(outs []*GOPOutcome, fromRound int) (float64, int) {
	var sum float64
	var tiles int
	for _, out := range outs {
		if out.Round >= fromRound && out.EstimateTiles > 0 {
			sum += out.EstimateErr * float64(out.EstimateTiles)
			tiles += out.EstimateTiles
		}
	}
	if tiles == 0 {
		return 0, 0
	}
	return sum / float64(tiles), tiles
}

// absorb folds one round into the report.
func (r *ServiceReport) absorb(out *GOPOutcome) {
	r.Rounds++
	r.Energy.Add(out.Energy)
	for _, gop := range out.GOPs {
		r.GOPReports++
		r.FramesEncoded += len(gop.Frames)
	}
}

// Finalize snapshots the server's session states into r: the submitted
// and imported counts, the terminal-state id lists and the failed
// sessions' errors. Run calls it before returning; a fleet calls it
// again after transitions that land outside a Run (Abort, a drain's
// export and dead-lettering) so its shard report tells the truth. A nil
// r starts a fresh report; the filled report is returned.
func (s *Server) Finalize(r *ServiceReport) *ServiceReport {
	if r == nil {
		r = &ServiceReport{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Submitted = len(s.records)
	r.Completed, r.Rejected, r.Failed, r.Migrated = nil, nil, nil, nil
	r.Imported = 0
	r.Errors = make(map[int]error)
	for id, rec := range s.records {
		if rec.imported {
			r.Imported++
		}
		switch rec.state {
		case StateCompleted:
			r.Completed = append(r.Completed, id)
		case StateRejected:
			r.Rejected = append(r.Rejected, id)
		case StateFailed:
			r.Failed = append(r.Failed, id)
			r.Errors[id] = rec.err
		case StateMigrated:
			r.Migrated = append(r.Migrated, id)
		}
	}
	return r
}

// hasServable reports whether any session is waiting for service.
func (s *Server) hasServable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.records {
		if rec.state == StateQueued && !rec.sess.Finished() {
			return true
		}
	}
	return false
}

// isClosed reports whether the arrival queue was closed.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Run drives the online service: it drains the arrival queue (Submit),
// serves GOP rounds over the live session set — sessions join mid-service
// and depart on completion, failure, admission timeout or cancellation —
// and blocks while the queue is empty but still open. It returns when the
// server has been Closed and every submitted session reached a terminal
// state, when ctx is cancelled, when Drain asks it to stop at the next
// GOP boundary (sessions stay queued, ready for ExportSessions), or on a
// round-level error (allocator or platform failure, or nobody admitted
// with the admission ladder disabled). The report covers everything
// served up to that point.
//
// A single session's encode failure does not stop the service: the
// session departs as StateFailed and its error is collected; the other
// sessions keep streaming.
//
// Run must be the only serving goroutine: it fails if another Run is
// active, and ServeGOP must not be called while it runs. Submit
// and Close are safe from any goroutine, including ServerConfig.OnRound.
func (s *Server) Run(ctx context.Context) (*ServiceReport, error) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: Run already active")
	}
	s.running = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
	}()

	rep := &ServiceReport{}
	defer s.Finalize(rep)
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if s.isDraining() {
			// Drain: stop at the GOP boundary with the sessions still
			// queued — the caller exports them (see migrate.go).
			return rep, nil
		}
		if !s.hasServable() {
			if s.isClosed() {
				// Re-check under the arrival race: a Submit may have
				// landed between the two tests.
				if !s.hasServable() {
					return rep, nil
				}
				continue
			}
			select {
			case <-ctx.Done():
				return rep, ctx.Err()
			case <-s.arrival:
			}
			continue
		}

		out, _, err := s.serveRound(ctx)
		if out != nil {
			rep.absorb(out)
		}
		if err != nil {
			return rep, err
		}
		// Failed sessions have departed (serveRound set their states and
		// stored their errors); service continues for the rest.
		if s.cfg.OnRound != nil {
			s.cfg.OnRound(out)
		}
		if len(out.AdmittedUsers) == 0 && len(out.TimedOut) == 0 && !s.cfg.Admission.Enabled {
			return rep, fmt.Errorf("core: no user admitted in round %d — demands exceed platform (enable the admission ladder to shed load)", out.Round)
		}
	}
}
