// Command perfbench is the repository benchmark: it drives the serving
// system through its public entry points (core.Server, serve.Fleet,
// dist.Master/dist.Agent) on frames medgen rendered before timing
// starts, checks every delivered GOP against a standalone encode, and
// prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics of a separately traced run. See README.md.
//
//	go run . -workload roster -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Latency holds the first-GOP latencies of an untraced run. They are
	// printed in the table, and carried into the traced run's per-layer
	// metrics: on a host whose hypervisor steals CPU time they swing too
	// far between runs to hold a regression bound.
	Latency map[string]metric `json:"-"`
}

// Run-level limits.
const (
	// setupReps is how many times a run builds and warms the system;
	// setup_s is the median.
	setupReps = 5
	// maxLateP99 is the open-loop validity bound: a run whose generator
	// sent its requests later than this (p99) did not apply the load it
	// claims, and is reported invalid instead of measured. Lateness below
	// it is not lost: latency counts from each request's due time.
	maxLateP99 = 100 * time.Millisecond
	// maxSourceShare is the fixture guard: FrameSource.Frame may take at
	// most this share of round wall time in a traced run.
	maxSourceShare = 0.05
	// drainTimeout bounds the wait for in-flight sessions after the
	// window; a session still running then is lost.
	drainTimeout = 60 * time.Second
	// chunkGOPs is the least work one throughput/CPU sample covers; the
	// reported figures are the calm quartile over a run's samples.
	chunkGOPs = 40
	// deadline is the whole run's budget.
	deadline = 170 * time.Second
)

// scenario is one benchmark workload.
type scenario struct {
	name string
	// pool is the fixture set the workload may serve.
	pool []medgen.Config
	// session is the configuration of every session.
	session core.SessionConfig
	// rate is the open-loop arrival rate (sessions/s).
	rate float64
	// build creates and warms one system instance.
	build func(p *phase) (instance, error)
}

// instance is one built system.
type instance interface {
	// load applies the workload from now until end, then stops adding
	// work.
	load(end time.Time) error
	// drain waits until every submitted session has ended.
	drain() error
	// close tears the system down and waits for its goroutines.
	close()
}

// phase is one untraced or traced run over shared fixtures.
type phase struct {
	wl     *scenario
	traced bool
	fx     []*fixture
	refs   map[*fixture]*reference
	rng    *rand.Rand
	rec    *recorder
	tr     *tracer

	lateness []time.Duration
	// submitLat times the outermost submit call (SubmitWith, or the
	// POST to the master).
	submitLat []time.Duration
	// utilSkew samples max/mean shard utilization (traced).
	utilSkew []float64
	scrapes  []time.Duration
	series   float64
	dropped  float64
	jsonl    struct{ bytes, dropped uint64 }
	dist     distStats
}

func main() {
	wlName := flag.String("workload", "roster", "workload: roster, churn or dist")
	seed := flag.Int64("seed", 1, "workload seed: selects class, motion and arrival order")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = print the per-layer metrics of a traced run")
	rate := flag.Float64("rate", 0, "override the open-loop arrival rate (sessions/s; calibration only)")
	flag.Parse()

	time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	wl := workloads()[*wlName]
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if *rate > 0 {
		wl.rate = *rate
	}
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
			os.Exit(1)
		}
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloads lists the benchmark's scenarios.
func workloads() map[string]*scenario {
	return map[string]*scenario{
		"roster": rosterWorkload(),
		"churn":  churnWorkload(),
		"dist":   distWorkload(),
	}
}

// run renders the fixtures, encodes the references, and runs the
// untraced phase — plus, with traced, the traced phase whose per-layer
// metrics it reports.
func run(wl *scenario, seed int64, window time.Duration, traced bool) (*result, error) {
	fx, err := renderFixtures(wl.pool)
	if err != nil {
		return nil, err
	}
	refs, err := references(fx, wl.session)
	if err != nil {
		return nil, err
	}
	plain, err := runPhase(wl, seed, fx, refs, window, false)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(plain)
	if !traced {
		return e2e, nil
	}
	tp, err := runPhase(wl, seed, fx, refs, window, true)
	if err != nil {
		return nil, err
	}
	return perLayer(tp, e2e)
}

// phaseResult carries one phase's measurements.
type phaseResult struct {
	*phase
	setup         []time.Duration
	t0, t1, tEnd  time.Time
	cpu           time.Duration
	heapMB        float64
	rt0, rt1      runtimeSample
	heapSamples   []heapSample
	goroutinesEnd int
}

// runPhase builds the system setupReps times (keeping the last), applies
// the load for window, drains, measures the heap with the system alive,
// tears down, and runs the correctness gate.
func runPhase(wl *scenario, seed int64, fx []*fixture, refs map[*fixture]*reference, window time.Duration, traced bool) (*phaseResult, error) {
	base := liveHeap()
	pr := &phaseResult{}
	var inst instance
	var p *phase
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		p = newPhase(wl, seed, fx, refs, traced)
		start := time.Now()
		var err error
		inst, err = wl.build(p)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		pr.setup = append(pr.setup, time.Since(start))
	}
	pr.phase = p
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()

	stopSampling := func() {}
	if traced {
		stopSampling = pr.sampleHeap()
	}
	pr.rt0 = readRuntime()
	cpu0 := cpuTime()
	pr.t0 = time.Now()
	p.rec.setMeasuring(true)
	pr.t1 = pr.t0.Add(window)
	if err := inst.load(pr.t1); err != nil {
		return nil, fmt.Errorf("%s load: %w", wl.name, err)
	}
	if err := inst.drain(); err != nil {
		return nil, fmt.Errorf("%s drain: %w", wl.name, err)
	}
	pr.tEnd = time.Now()
	p.rec.setMeasuring(false)
	pr.cpu = cpuTime() - cpu0
	pr.rt1 = readRuntime()
	stopSampling()
	pr.goroutinesEnd = runtime.NumGoroutine()
	pr.heapMB = float64(liveHeap()-base) / (1 << 20)
	inst.close()
	inst = nil

	sessions, _ := p.rec.snapshot()
	if bad := gate(sessions, refs); len(bad) > 0 {
		const show = 10
		if len(bad) > show {
			bad = append(bad[:show], fmt.Sprintf("... and %d more", len(bad)-show))
		}
		return nil, fmt.Errorf("correctness gate failed (%s):\n  %s", wl.name, strings.Join(bad, "\n  "))
	}
	if late := lateP99(p.lateness); late > maxLateP99 {
		return nil, fmt.Errorf("invalid run: the load generator ran %v late at p99 (bound %v)", late, maxLateP99)
	}
	return pr, nil
}

func newPhase(wl *scenario, seed int64, fx []*fixture, refs map[*fixture]*reference, traced bool) *phase {
	p := &phase{
		wl: wl, traced: traced, fx: fx, refs: refs,
		rng: rand.New(rand.NewSource(seed)),
		rec: newRecorder(wl.session.Codec.GOPSize, traced),
	}
	if traced {
		p.tr = newTracer(p.rec)
	}
	return p
}

// lateP99 is the generator's p99 lateness (0 when nothing was sent).
func lateP99(late []time.Duration) time.Duration {
	if len(late) == 0 {
		return 0
	}
	v := make([]float64, len(late))
	for i, d := range late {
		v[i] = float64(d)
	}
	return time.Duration(percentile(v, 0.99))
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// median of durations in seconds.
func medianSeconds(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return percentile(v, 0.5)
}

// printTable prints the metrics as a readable table before the JSON line.
func printTable(res *result) {
	fmt.Printf("sessions: %d attempted, %d failed; outputs correct: %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range sortedNames(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range sortedNames(res.Latency) {
		m := res.Latency[n]
		fmt.Printf("  %-40s %14.6g %s (no bound)\n", n, m.Value, m.Unit)
	}
}

// sortedNames returns the metric names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
