package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tenancy"
)

// churnRate is the churn workload's fixed arrival rate: about half of
// the measured capacity of the 2-core reference host (README.md).
const churnRate = 45.0

// Churn tenants: the heavy tenant gets three times the light one's core
// share whenever both are live, so stage D2 takes the apportioned path.
var churnTenants = []tenancy.Tenant{{ID: "clinic-a", Weight: 3}, {ID: "clinic-b", Weight: 1}}

// smallSession is the configuration of the short-session workloads:
// 4-frame GOPs on 160×120 frames, with the re-tiler's minimum tile
// scaled to the frame.
func smallSession() core.SessionConfig {
	cfg := core.DefaultSessionConfig()
	cfg.Codec.GOPSize = 4
	cfg.Retile.MinTileW, cfg.Retile.MinTileH = 32, 32
	return cfg
}

// churnWorkload: an open loop of two-GOP sessions on a fixed wall-clock
// schedule into a 2-shard fleet with demand placement, admission,
// calibration, two weighted tenants, and a RingSink, a buffered JSONL
// sink and a metrics exporter attached.
func churnWorkload() *scenario {
	cfg := smallSession()
	return &scenario{
		name:    "churn",
		pool:    contentPool(160, 120, 2*cfg.Codec.GOPSize),
		session: cfg,
		rate:    churnRate,
		build:   buildChurn,
	}
}

type churn struct {
	p       *phase
	fleet   *serve.Fleet
	jsonl   *serve.JSONLSink
	jbytes  *countingWriter
	msink   *metrics.Sink
	cancel  context.CancelFunc
	done    chan struct{}
	scraper *scraper
	// jbytes0 is the JSONL byte count when the window opened.
	jbytes0 uint64
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n atomic.Uint64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n.Add(uint64(len(b)))
	return len(b), nil
}

func buildChurn(p *phase) (instance, error) {
	c := &churn{p: p, done: make(chan struct{}), jbytes: &countingWriter{}}
	c.jsonl = serve.NewBufferedJSONLSink(c.jbytes, 1024, serve.JSONLDrop)
	c.msink = metrics.NewSink(metrics.SinkConfig{})
	var sink serve.Sink = serve.MultiSink(serve.NewRingSink(256), c.jsonl, c.msink, &stateSink{rec: p.rec})
	if p.traced {
		sink = &sinkTracer{inner: sink, t: p.tr}
	}
	opts := []serve.Option{
		serve.WithShards(2),
		serve.WithDemandPlacement(serve.PlacementConfig{}),
		serve.WithAdmission(core.AdmissionConfig{Enabled: true}),
		serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
		serve.WithTenancy(tenancy.NewRegistry(churnTenants...)),
		serve.WithSink(sink),
		serve.WithRoundHook(func(shard int, out *core.GOPOutcome) {
			p.rec.closeRound(p.rec.onRound(0, shard, out))
		}),
	}
	if p.traced {
		opts = append(opts, p.tr.tracedRegistry(0, 2)...)
	}
	fleet, err := serve.New(opts...)
	if err != nil {
		return nil, err
	}
	c.fleet = fleet
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go func() {
		defer close(c.done)
		if _, err := fleet.Run(ctx); err != nil && ctx.Err() == nil {
			p.rec.fail(fmt.Errorf("churn: fleet: %w", err))
		}
	}()
	// Warm-up: one session of every fixture, so each class LUT has seen
	// the content before the window opens.
	for i := range p.fx {
		if err := c.submit(i, time.Now()); err != nil {
			return nil, err
		}
	}
	if err := waitTerminal(p.rec, drainTimeout); err != nil {
		return nil, err
	}
	c.scraper = startScraper(p, c.msink.Registry())
	return c, nil
}

// submit sends fixture fi to the fleet; due is when it was scheduled.
func (c *churn) submit(fi int, due time.Time) error {
	p := c.p
	src := &source{fx: p.fx[fi], traced: p.traced}
	tenant := churnTenants[p.rng.Intn(len(churnTenants))].ID
	start := time.Now()
	pl, err := c.fleet.SubmitWith(serve.SubmitRequest{Source: src, Config: p.wl.session, Tenant: tenant})
	end := time.Now()
	if err != nil {
		return err
	}
	src.submitEnd = end
	if p.rec.isMeasuring() {
		p.submitLat = append(p.submitLat, end.Sub(start))
	}
	p.rec.register(&sessRec{key: sessKey{0, pl.Shard, pl.Session.ID}, fx: src.fx, src: src, due: due})
	return nil
}

// load runs the open-loop generator on this goroutine until end.
func (c *churn) load(end time.Time) error {
	c.jbytes0 = c.jbytes.n.Load()
	return openLoop(c.p, end, func(fi int, due time.Time) error {
		if c.p.traced {
			c.p.utilSkew = append(c.p.utilSkew, utilSkew(c.fleet.Loads()))
		}
		return c.submit(fi, due)
	})
}

func (c *churn) drain() error {
	err := waitTerminal(c.p.rec, drainTimeout)
	c.scraper.stop()
	c.p.jsonl.bytes = c.jbytes.n.Load() - c.jbytes0
	c.p.jsonl.dropped = c.jsonl.Dropped()
	return err
}

func (c *churn) close() {
	c.scraper.stop()
	c.fleet.Close()
	select {
	case <-c.done:
	case <-time.After(drainTimeout):
	}
	c.cancel()
	<-c.done
	_ = c.jsonl.Close() // the counting writer never fails
}

// openLoop sends one request per schedule slot from this goroutine until
// end, recording how late each went out. The fixture of request i is the
// seed's arrival order.
func openLoop(p *phase, end time.Time, send func(fi int, due time.Time) error) error {
	sch := schedule{start: time.Now(), interval: time.Duration(float64(time.Second) / p.wl.rate)}
	n := sch.count(end)
	order := arrivalOrder(p.rng, len(p.fx), n)
	for i := 0; i < n; i++ {
		due := sch.due(i)
		time.Sleep(time.Until(due))
		p.lateness = append(p.lateness, lateness(due, time.Now()))
		if err := send(order[i], due); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

// waitTerminal polls until every registered session has ended. Sessions
// still running at the timeout are left for the gate to report as lost.
func waitTerminal(rec *recorder, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !rec.allTerminal() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	return rec.err()
}

// utilSkew is max/mean utilization over the live shards (1 when idle).
func utilSkew(loads []core.LoadReport) float64 {
	var sum, max float64
	n := 0
	for _, l := range loads {
		if !l.Alive {
			continue
		}
		n++
		sum += l.Util
		if l.Util > max {
			max = l.Util
		}
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return max / (sum / float64(n))
}

// scraper reads a metrics registry once a second, as an operator's
// Prometheus would, timing each scrape.
type scraper struct {
	stopc chan struct{}
	done  chan struct{}
	once  atomic.Bool
}

func startScraper(p *phase, regs ...*metrics.Registry) *scraper {
	s := &scraper{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			var w seriesCounter
			dropped := 0
			start := time.Now()
			for _, reg := range regs {
				_ = reg.WritePrometheus(&w) // seriesCounter never fails
				dropped += reg.DroppedSeries()
			}
			d := time.Since(start)
			p.rec.mu.Lock()
			if p.rec.measuring {
				p.scrapes = append(p.scrapes, d)
				p.series = float64(w.series)
				p.dropped = float64(dropped)
			}
			p.rec.mu.Unlock()
		}
	}()
	return s
}

func (s *scraper) stop() {
	if s == nil || s.once.Swap(true) {
		return
	}
	close(s.stopc)
	<-s.done
}

// seriesCounter counts the sample lines of a Prometheus exposition.
type seriesCounter struct {
	series  int
	lineLen int
	comment bool
}

func (w *seriesCounter) Write(b []byte) (int, error) {
	for _, ch := range b {
		if w.lineLen == 0 {
			w.comment = ch == '#'
		}
		if ch == '\n' {
			if w.lineLen > 0 && !w.comment {
				w.series++
			}
			w.lineLen = 0
			continue
		}
		w.lineLen++
	}
	return len(b), nil
}
