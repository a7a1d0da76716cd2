package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the q-quantile (0 ≤ q ≤ 1) of values by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile: a weighted
// mean of all order statistics with Beta((n+1)q, (n+1)(1−q)) weights.
// It estimates the same quantile as percentile with a smaller variance
// in sparse tails, where a single order statistic jumps between runs.
func hdQuantile(values []float64, q float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

// tailQuantile returns the highest quantile ≤ q that still has at least
// minTail samples beyond it: q itself when the run has n·(1−q) ≥ minTail
// samples, otherwise 1 − minTail/n, never below the median.
func tailQuantile(n int, q float64) float64 {
	if n <= 0 {
		return q
	}
	if float64(n)*(1-q) >= minTail {
		return q
	}
	alt := 1 - float64(minTail)/float64(n)
	if alt < 0.5 {
		alt = 0.5
	}
	return alt
}

// tailPercentile is the Harrell–Davis estimate at
// tailQuantile(len(values), q).
func tailPercentile(values []float64, q float64) float64 {
	return hdQuantile(values, tailQuantile(len(values), q))
}

// windowSamples is the least number of sessions a latency window holds:
// enough for its p95 to have ten samples beyond it.
const windowSamples = 200

// calmQuantile picks the figure a run reports from its windows: the
// lower quartile of a lower-is-better figure (the upper quartile of a
// higher-is-better one). On a shared host, contention from the
// machine's other tenants inflates the windows it lands in and never
// deflates one, so the calmer quarter of a run is what repeats from run
// to run; a slower program still moves every window.
const calmQuantile = 0.25

// windowStats splits values, in arrival order, into consecutive windows
// of at least windowSamples each (one window when there are fewer) and
// applies stat to each.
func windowStats(values []float64, stat func([]float64) float64) []float64 {
	k := len(values) / windowSamples
	if k < 1 {
		k = 1
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = stat(values[i*len(values)/k : (i+1)*len(values)/k])
	}
	return per
}

// mean returns the arithmetic mean (0 for an empty slice).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// slope fits y = a + b·x by least squares and returns b (0 when x has no
// spread).
func slope(x, y []float64) float64 {
	n := len(x)
	if n < 2 || len(y) != n {
		return 0
	}
	mx, my := mean(x), mean(y)
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// schedule is the open-loop arrival plan: request i is due at
// start + i·interval, independent of how the system keeps up.
type schedule struct {
	start    time.Time
	interval time.Duration
}

// due returns when request i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// count returns how many requests fall due before end.
func (s schedule) count(end time.Time) int {
	span := end.Sub(s.start)
	if span <= 0 {
		return 0
	}
	return int((span + s.interval - 1) / s.interval)
}

// lateness is how far behind its plan the generator sent a request
// (never negative: an early send cannot happen with a sleeping sender).
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
