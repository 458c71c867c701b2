package main

import (
	"math"
	"sort"
)

// median returns the middle of v (mean of the two middles for even
// lengths); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that
// is how the acceptance check computes run-to-run spread. Fewer than two
// values have no spread: both quartiles are the single value (or 0).
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// tailQuantile picks the highest reportable tail percentile of a sample of
// n latencies: the largest of p50/p90/p99/p99.9/p99.99 that still has at
// least ten samples beyond it. Below twenty samples not even the median
// qualifies and ok is false.
func tailQuantile(n int64) (q float64, label string, ok bool) {
	tails := []struct {
		oneIn int64 // one sample in this many lies beyond the percentile
		q     float64
		label string
	}{{10000, 0.9999, "p9999"}, {1000, 0.999, "p999"}, {100, 0.99, "p99"}, {10, 0.9, "p90"}, {2, 0.5, "p50"}}
	for _, t := range tails {
		if n >= 10*t.oneIn {
			return t.q, t.label, true
		}
	}
	return 0, "", false
}

// Saturation limits: an offered rate counts as served when the tail stays
// under the latency limit, goodput keeps up with the offer (no growing
// backlog), and next to nothing fails. The goodput share leaves room for
// the arrival process itself: a rung ends when the slowest of four client
// nodes has drawn its last arrival, which on a 0.1 s rung falls up to 7 %
// after the nominal end.
const (
	satP99LimitUS   = 5000.0
	satGoodputShare = 0.90
	satFailShare    = 0.001
)

// rung is one offered-load point of a kv ladder, reduced to what the
// saturation rule reads.
type rung struct {
	offeredRPS float64
	goodputRPS float64
	p99US      float64
	failShare  float64
}

// satRate is the highest offered rate on the ladder that meets all three
// saturation limits; 0 when none does.
func satRate(ladder []rung) float64 {
	best := 0.0
	for _, r := range ladder {
		if r.p99US <= satP99LimitUS && r.goodputRPS >= satGoodputShare*r.offeredRPS &&
			r.failShare <= satFailShare && r.offeredRPS > best {
			best = r.offeredRPS
		}
	}
	return best
}
