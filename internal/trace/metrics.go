package trace

import (
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"sort"
)

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Add adds d.
func (c *Counter) Add(d int64) { c.v += d }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v }

// HistBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and
// bucket i>0 holds 2^(i-1) <= v < 2^i.
const HistBuckets = 65

// Histogram is a fixed-layout log2 histogram. Observation is a couple of
// integer ops and never allocates, so it is safe on hot paths.
type Histogram struct {
	counts   [HistBuckets]int64
	n, sum   int64
	min, max int64
}

// Observe records v (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min and Max report the observed extremes (0 when empty).
func (h *Histogram) Min() int64 { return h.min }
func (h *Histogram) Max() int64 { return h.max }

// Quantile estimates the q-quantile (q in [0,1], clamped) by locating the
// log2 bucket holding the rank and interpolating linearly between the
// bucket's bounds by the rank's position inside it. Bucket i>0 spans
// [2^(i-1), 2^i - 1]; the first and last occupied buckets are tightened to
// the observed min and max, so Quantile(0) == Min and Quantile(1) == Max.
// The result is deterministic: pure float64 arithmetic over the counts.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n-1)
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, hi := bucketBounds(i)
			last := seen+c == h.n
			if seen == 0 && h.min > lo {
				lo = h.min // first occupied bucket: min tightens the low edge
			}
			if last && h.max < hi {
				hi = h.max // last occupied bucket: max tightens the high edge
			}
			if hi <= lo {
				return lo
			}
			if c == 1 {
				// One observation: the tightened edge is exact for the
				// first/last bucket; interior buckets report the low edge.
				if last {
					return hi
				}
				return lo
			}
			frac := (rank - float64(seen)) / float64(c-1)
			if frac >= 1 {
				return hi
			}
			// Past 2^53 float64(hi-lo) is rounded: stay inside the bucket.
			return min(hi, lo+int64(frac*float64(hi-lo)))
		}
		seen += c
	}
	return h.max
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = 1 << uint(i-1)
	hi = 1<<uint(i) - 1
	return lo, hi
}

// Merge folds o's observations into h (bucket-wise; min/max/count/sum exact,
// quantiles as good as the shared bucket layout allows). Merging preserves
// determinism: the result depends only on the two histograms' contents, not
// on merge order.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
}

// MetricKind tags a snapshot entry.
type MetricKind uint8

const (
	KCounter MetricKind = iota
	KHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KCounter:
		return "counter"
	case KHistogram:
		return "histogram"
	}
	return "?"
}

// Metric is one entry of a registry snapshot.
type Metric struct {
	Name string
	Kind MetricKind

	// Value is the counter value; for histograms it is the mean.
	Value float64

	// Histogram-only fields.
	Count, Min, Max, P50, P99, P999 int64
}

// Registry names and owns a set of metrics. Lookup by name happens at
// wiring time (instrumented layers cache the typed pointers), so the hot
// path touches only the metric structs. A nil *Registry disables metrics
// the same way a nil *Recorder disables tracing.
type Registry struct {
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// Merge folds o into r: counters add, histograms Merge, and every name o
// holds is then in r, so r reads as one registry both runs published into.
func (r *Registry) Merge(o *Registry) {
	for name, c := range o.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, h := range o.histograms {
		r.Histogram(name).Merge(h)
	}
}

// Fold adds *src into *dst field by field — int64s sum, histograms merge,
// nested structs recurse — and, with a registry, publishes each src field
// that carries a `metric:"name"` tag under that name. A layer declares its
// counters as a tagged struct, counts into one per node, and folds the nodes
// once the run is over: a count is declared once and never mirrored live.
func Fold[T any](dst, src *T, reg *Registry) {
	fold(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), reg)
}

func fold(dst, src reflect.Value, reg *Registry) {
	for i := 0; i < src.NumField(); i++ {
		d, f := dst.Field(i), src.Field(i)
		name := src.Type().Field(i).Tag.Get("metric")
		switch v := f.Addr().Interface().(type) {
		case *int64:
			d.SetInt(d.Int() + *v)
			if reg != nil && name != "" {
				reg.Counter(name).Add(*v)
			}
		case *Histogram:
			d.Addr().Interface().(*Histogram).Merge(v)
			if reg != nil && name != "" {
				reg.Histogram(name).Merge(v)
			}
		default:
			fold(d, f, reg)
		}
	}
}

// Snapshot returns every metric, sorted by name (deterministic output for
// reports and tests).
func (r *Registry) Snapshot() []Metric {
	var out []Metric
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KCounter, Value: float64(c.Value())})
	}
	for name, h := range r.histograms {
		out = append(out, Metric{
			Name: name, Kind: KHistogram, Value: h.Mean(),
			Count: h.Count(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99), P999: h.Quantile(0.999),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteMetrics renders a snapshot as an aligned text table.
func WriteMetrics(w io.Writer, snap []Metric) {
	fmt.Fprintf(w, "%-36s %-9s %14s %10s %8s %8s %8s %8s %8s\n",
		"metric", "kind", "value", "count", "min", "p50", "p99", "p999", "max")
	for _, m := range snap {
		switch m.Kind {
		case KHistogram:
			fmt.Fprintf(w, "%-36s %-9s %14.2f %10d %8d %8d %8d %8d %8d\n",
				m.Name, m.Kind, m.Value, m.Count, m.Min, m.P50, m.P99, m.P999, m.Max)
		default:
			fmt.Fprintf(w, "%-36s %-9s %14.0f %10s %8s %8s %8s %8s %8s\n",
				m.Name, m.Kind, m.Value, "-", "-", "-", "-", "-", "-")
		}
	}
}
