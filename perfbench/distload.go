package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// distRate is the dist workload's fixed arrival rate: about half of the
// measured capacity of the 2-core reference host (README.md).
const distRate = 25.0

// distAgents is the number of in-process agents behind the master.
const distAgents = 2

// distWorkload: an open loop of four-GOP sessions POSTed to a
// dist.Master that routes them over loopback HTTP to two in-process
// agents, each a 2-shard fleet with demand placement. The agents bind
// specs to the pre-rendered frames and send heartbeats carrying session
// checkpoints.
func distWorkload() *scenario {
	cfg := smallSession()
	return &scenario{
		name:    "dist",
		pool:    contentPool(160, 120, 4*cfg.Codec.GOPSize),
		session: cfg,
		rate:    distRate,
		build:   buildDist,
	}
}

// distStats are the dist layer's outside measurements.
type distStats struct {
	heartbeatBytes []float64
	heartbeatTime  []time.Duration
	checkpointB    int
	routed, home   int
}

type distSys struct {
	p       *phase
	cancel  context.CancelFunc
	master  *dist.Master
	proxy   *http.Server
	agents  []*dist.Agent
	names   []string
	client  *http.Client
	url     string
	ring    *serve.Ring
	scraper *scraper

	mu       sync.Mutex
	ticket   int
	lastBind []time.Time
	// bound maps a ticket to the source an agent's binder opened for it.
	bound map[int]*source
}

func buildDist(p *phase) (instance, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &distSys{p: p, cancel: cancel, lastBind: make([]time.Time, distAgents), bound: make(map[int]*source)}
	// The generator's client: one goroutine, at most two connections.
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	master, err := dist.NewMaster(dist.MasterConfig{Addr: "127.0.0.1:0", HeartbeatTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	if err := master.Start(ctx); err != nil {
		return nil, err
	}
	d.master = master
	d.url = master.URL()
	beatURL := d.url
	if p.traced {
		if beatURL, err = d.startProxy(); err != nil {
			return nil, err
		}
	}
	var regs []*metrics.Registry
	for i := 0; i < distAgents; i++ {
		node := i
		name := fmt.Sprintf("agent-%d", i)
		msink := metrics.NewSink(metrics.SinkConfig{Agent: name})
		regs = append(regs, msink.Registry())
		var sink serve.Sink = serve.MultiSink(&stateSink{rec: p.rec, node: node}, msink)
		if p.traced {
			sink = &sinkTracer{inner: sink, t: p.tr, node: node, placed: func(at time.Time) {
				if !p.tr.measuring() {
					return
				}
				d.mu.Lock()
				bound := d.lastBind[node]
				d.mu.Unlock()
				p.tr.mu.Lock()
				p.tr.serveSubmit = append(p.tr.serveSubmit, at.Sub(bound))
				p.tr.mu.Unlock()
			}}
		}
		b := newBinder(p.fx, p.traced, func(src *source) {
			d.mu.Lock()
			d.lastBind[node] = time.Now()
			d.bound[src.ticket] = src
			d.mu.Unlock()
		})
		opts := []serve.Option{
			serve.WithShards(2),
			serve.WithDemandPlacement(serve.PlacementConfig{}),
			serve.WithAdmission(core.AdmissionConfig{Enabled: true}),
			serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
			serve.WithRoundHook(func(shard int, out *core.GOPOutcome) {
				p.rec.closeRound(p.rec.onRound(node, shard, out))
			}),
		}
		if p.traced {
			opts = append(opts, p.tr.tracedRegistry(node, 2)...)
		}
		agent, err := dist.NewAgent(dist.AgentConfig{
			Name:      name,
			Addr:      "127.0.0.1:0",
			MasterURL: beatURL,
			Binder:    b.bind,
			Sink:      sink,
		}, opts...)
		if err != nil {
			return nil, err
		}
		if err := agent.Start(ctx); err != nil {
			return nil, err
		}
		d.agents = append(d.agents, agent)
		d.names = append(d.names, name)
	}
	d.ring = serve.NewRing(d.names, serve.RingReplicas)
	if err := d.waitAgents(10 * time.Second); err != nil {
		return nil, err
	}
	for i := range p.fx {
		if err := d.submit(i, time.Now()); err != nil {
			return nil, err
		}
	}
	if err := waitTerminal(p.rec, drainTimeout); err != nil {
		return nil, err
	}
	d.scraper = startScraper(p, regs...)
	ok = true
	return d, nil
}

// waitAgents polls the master until every agent has registered.
func (d *distSys) waitAgents(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var out dist.AgentsResponse
		if err := d.getJSON(d.url+"/v1/agents", &out); err == nil {
			live := 0
			for _, a := range out.Agents {
				if a.Alive {
					live++
				}
			}
			if live == distAgents {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("dist: agents did not register with the master")
}

func (d *distSys) getJSON(url string, out any) error {
	resp, err := d.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// submit POSTs fixture fi to the master; due is when it was scheduled.
func (d *distSys) submit(fi int, due time.Time) error {
	p := d.p
	d.mu.Lock()
	d.ticket++
	ticket := d.ticket
	d.mu.Unlock()
	src := &source{fx: p.fx[fi], ticket: ticket}
	spec, err := src.Spec()
	if err != nil {
		return err
	}
	body, err := json.Marshal(dist.SubmitRequest{Version: dist.ProtocolVersion, Source: spec, Config: p.wl.session})
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := d.client.Post(d.url+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var routed dist.RoutedSubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&routed)
	resp.Body.Close()
	end := time.Now()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: %s", resp.Status)
	}
	if derr != nil {
		return fmt.Errorf("submit response: %w", derr)
	}
	node := -1
	for i, n := range d.names {
		if n == routed.Agent {
			node = i
		}
	}
	if node < 0 {
		return fmt.Errorf("submit routed to unknown agent %q", routed.Agent)
	}
	if p.rec.isMeasuring() {
		p.submitLat = append(p.submitLat, end.Sub(start))
	}
	p.rec.mu.Lock()
	if p.rec.measuring {
		p.dist.routed++
		if d.ring.MemberFor(src.fx.class) == routed.Agent {
			p.dist.home++
		}
	}
	p.rec.mu.Unlock()
	d.mu.Lock()
	served := d.bound[ticket]
	delete(d.bound, ticket)
	d.mu.Unlock()
	if served == nil {
		return fmt.Errorf("submit %d: no agent bound its source", ticket)
	}
	served.submitEnd = end
	p.rec.register(&sessRec{key: sessKey{node, routed.Shard, routed.Session}, fx: served.fx, src: served, due: due})
	return nil
}

func (d *distSys) load(end time.Time) error {
	return openLoop(d.p, end, func(fi int, due time.Time) error {
		if d.p.traced {
			var loads []core.LoadReport
			for _, a := range d.agents {
				loads = append(loads, a.Fleet().Loads()...)
			}
			d.p.utilSkew = append(d.p.utilSkew, utilSkew(loads))
		}
		return d.submit(fi, due)
	})
}

func (d *distSys) drain() error {
	err := waitTerminal(d.p.rec, drainTimeout)
	d.scraper.stop()
	return err
}

func (d *distSys) close() {
	d.scraper.stop()
	for _, a := range d.agents {
		a.Close()
	}
	if d.master != nil {
		d.master.Close()
	}
	if d.proxy != nil {
		d.proxy.Close()
	}
	d.cancel()
	d.client.CloseIdleConnections()
}

// startProxy puts a recording reverse proxy between the agents and the
// master: every heartbeat's size, checkpoint payload and round-trip
// time is measured on its way through.
func (d *distSys) startProxy() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	upstream := &http.Client{}
	p := d.p
	d.proxy = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, d.url+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := upstream.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body) // the agent retries a failed heartbeat
		elapsed := time.Since(start)
		if r.URL.Path != "/v1/heartbeat" {
			return
		}
		var hb struct {
			Checkpoints []json.RawMessage `json:"checkpoints"`
		}
		cp := 0
		if json.Unmarshal(body, &hb) == nil {
			for _, c := range hb.Checkpoints {
				cp += len(c)
			}
		}
		p.rec.mu.Lock()
		if p.rec.measuring {
			p.dist.heartbeatBytes = append(p.dist.heartbeatBytes, float64(len(body)))
			p.dist.heartbeatTime = append(p.dist.heartbeatTime, elapsed)
			p.dist.checkpointB += cp
		}
		p.rec.mu.Unlock()
	})}
	go func() { _ = d.proxy.Serve(ln) }() // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}
