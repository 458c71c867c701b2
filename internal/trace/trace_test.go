package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"slices"
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := New()
	if r.Len() != 0 {
		t.Fatalf("fresh recorder has %d events", r.Len())
	}
	id := r.NewPacketID()
	id2 := r.NewPacketID()
	if id == id2 || id == 0 || id2 == 0 {
		t.Fatalf("bad packet IDs: %d, %d", id, id2)
	}
	r.Emit(100, EvStaged, 0, id, 36, "request")
	r.Emit(50, EvCommitted, 0, id, 0, "")
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	s := r.Sorted()
	if s[0].T != 50 || s[1].T != 100 {
		t.Fatalf("Sorted out of order: %v", s)
	}
	// Events preserves emission order; Sorted does not disturb it.
	if e := r.Events(); e[0].T != 100 {
		t.Fatalf("Events reordered: %v", e)
	}
	r.Cut(1)
	if e := r.Events(); len(e) != 1 || e[0].T != 50 {
		t.Fatalf("Cut(1) left %v", e)
	}
	if id3 := r.NewPacketID(); id3 == id || id3 == id2 {
		t.Fatalf("Cut recycled packet ID %d", id3)
	}
}

func TestRecorderDropCap(t *testing.T) {
	r := NewWithCap(4)
	for i := 0; i < 10; i++ {
		r.Emit(int64(i), EvPolled, 0, 0, 0, "")
	}
	if r.Len() != 4 {
		t.Fatalf("capped recorder holds %d events, want 4", r.Len())
	}
	if r.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kindMax; k++ {
		if s := k.String(); s == "" || s == "?" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if kindMax.String() != "?" {
		t.Fatalf("out-of-range kind printed %q", kindMax.String())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1106 {
		t.Fatalf("Count/Sum = %d/%d", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 184 || m > 185 {
		t.Fatalf("Mean = %f, want ~184.3", m)
	}
	if q := h.Quantile(0.5); q != 2 { // rank 2.5 interpolates inside [2,3]
		t.Fatalf("p50 = %d, want 2", q)
	}
	if q := h.Quantile(0.0); q != 0 { // tightened to the observed min
		t.Fatalf("p0 = %d, want 0", q)
	}
	if q := h.Quantile(1.0); q != 1000 { // tightened to the observed max
		t.Fatalf("p100 = %d, want 1000", q)
	}
}

// FuzzHistogramQuantile checks Quantile and Merge against the sorted
// samples. data is read nine bytes a sample (a 64-bit word shifted right by
// 0-63, so every bucket is reachable; a set top bit makes a negative, which
// Observe clamps); the first `split` samples go to one histogram and the
// rest to another. The estimate may not leave the log2 bucket of the exact
// order statistic, is exact at both ends, never falls as q rises, and
// merging the halves equals observing everything into one histogram.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), uint16(65535))
	f.Add(binary.LittleEndian.AppendUint64(nil, 42), uint8(1), uint16(100), uint16(200))
	var seed []byte
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000, 1 << 40, 1<<62 + 1, 1<<63 - 1, 1 << 63} {
		seed = append(binary.LittleEndian.AppendUint64(seed, v), 0)
	}
	f.Add(seed, uint8(4), uint16(32768), uint16(64880))
	// Two samples in the top bucket whose distance float64 rounds down (the
	// seed above rounds up and overflowed): Quantile(1) must still be Max.
	seed = append(binary.LittleEndian.AppendUint64(nil, 1<<62), 0)
	seed = append(binary.LittleEndian.AppendUint64(seed, 6354632057744797744), 0)
	f.Add(seed, uint8(1), uint16(0), uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, split uint8, qa, qb uint16) {
		var a, b, all Histogram
		var sorted []int64
		for ; len(data) >= 9; data = data[9:] {
			v := int64(binary.LittleEndian.Uint64(data) >> (data[8] & 63))
			if len(sorted) < int(split) {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			all.Observe(v)
			sorted = append(sorted, max(v, 0))
		}
		a.Merge(&b)
		if a != all {
			t.Fatalf("Merge differs from observing both sets:\nmerged %+v\nall    %+v", a, all)
		}
		if len(sorted) == 0 {
			if all.Quantile(0.5) != 0 {
				t.Fatal("empty histogram has a non-zero quantile")
			}
			return
		}
		slices.Sort(sorted)
		if all.Quantile(0) != sorted[0] || all.Quantile(1) != sorted[len(sorted)-1] {
			t.Fatalf("Quantile(0), Quantile(1) = %d, %d, want min %d, max %d",
				all.Quantile(0), all.Quantile(1), sorted[0], sorted[len(sorted)-1])
		}
		if qa > qb {
			qa, qb = qb, qa
		}
		prev := sorted[0]
		for _, q16 := range []uint16{qa, qb} {
			q := float64(q16) / 65535
			got, exact := all.Quantile(q), sorted[int(q*float64(len(sorted)-1))]
			if bits.Len64(uint64(got)) != bits.Len64(uint64(exact)) || got < sorted[0] || got > sorted[len(sorted)-1] {
				t.Fatalf("Quantile(%v) = %d outside the bucket of the order statistic %d (n=%d)", q, got, exact, len(sorted))
			}
			if got < prev {
				t.Fatalf("Quantile(%v) = %d below a lower quantile's %d", q, got, prev)
			}
			prev = got
		}
	})
}

// TestHistogramQuantileInterpolation pins the interpolated quantiles on
// known distributions: the estimate must move within a bucket with the rank
// instead of snapping to the bucket's top edge.
func TestHistogramQuantileInterpolation(t *testing.T) {
	// 1024 uniform values 0..1023: half the mass sits in the top bucket
	// [512,1023], so pre-interpolation every quantile above 0.5 returned
	// 1023. With rank interpolation the estimates track the true values.
	var u Histogram
	for v := int64(0); v < 1024; v++ {
		u.Observe(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 0},        // min
		{1, 1023},     // max
		{0.999, 1021}, // rank 1021.977 inside [512,1023]
		{0.99, 1012},  // rank 1012.77
		{0.75, 767},   // rank 767.25
	}
	for _, c := range cases {
		if got := u.Quantile(c.q); got != c.want {
			t.Errorf("uniform Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}

	// A constant distribution must report that constant at every quantile.
	var k Histogram
	for i := 0; i < 100; i++ {
		k.Observe(7)
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := k.Quantile(q); got != 7 {
			t.Errorf("constant Quantile(%v) = %d, want 7", q, got)
		}
	}

	// Single observation: every quantile is that observation.
	var one Histogram
	one.Observe(42)
	if got := one.Quantile(0.5); got != 42 {
		t.Errorf("single Quantile(0.5) = %d, want 42", got)
	}

	// Out-of-range q clamps.
	if got := u.Quantile(-1); got != 0 {
		t.Errorf("Quantile(-1) = %d, want 0", got)
	}
	if got := u.Quantile(2); got != 1023 {
		t.Errorf("Quantile(2) = %d, want 1023", got)
	}
}

// TestHistogramMerge checks that merging preserves count/sum/min/max and
// bucket contents (quantiles over the merged histogram match a histogram
// fed both streams directly).
func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for v := int64(0); v < 500; v++ {
		a.Observe(v)
		both.Observe(v)
	}
	for v := int64(500); v < 1000; v++ {
		b.Observe(v * 3)
		both.Observe(v * 3)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() {
		t.Fatalf("merged Count/Sum = %d/%d, want %d/%d", a.Count(), a.Sum(), both.Count(), both.Sum())
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merged Min/Max = %d/%d, want %d/%d", a.Min(), a.Max(), both.Min(), both.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merged Quantile(%v) = %d, want %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op; merging into empty copies.
	var empty, into Histogram
	a.Merge(&empty)
	if a.Count() != both.Count() {
		t.Fatal("merge of empty histogram changed the count")
	}
	into.Merge(&a)
	if into.Count() != a.Count() || into.Min() != a.Min() || into.Max() != a.Max() {
		t.Fatal("merge into empty histogram did not copy contents")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(3)
	reg.Counter("a.first").Add(7)
	reg.Histogram("m.mid").Observe(42)
	// Same name must return the same instrument.
	reg.Counter("z.last").Add(1)
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	if snap[0].Name != "a.first" || snap[1].Name != "m.mid" || snap[2].Name != "z.last" {
		t.Fatalf("snapshot not name-sorted: %v", snap)
	}
	if snap[2].Value != 4 {
		t.Fatalf("counter = %f, want 4", snap[2].Value)
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, snap)
	for _, want := range []string{"a.first", "m.mid", "z.last", "counter", "histogram"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("WriteMetrics output missing %q:\n%s", want, buf.String())
		}
	}
}

// foldInner and foldOuter are a hand-written counter declaration: tagged
// and untagged counts, a tagged and an untagged histogram, and a nested
// struct whose fields carry their own tags.
type foldInner struct {
	Hits int64 `metric:"in.hits"`
	Raw  int64
}

type foldOuter struct {
	Sent   int64     `metric:"out.sent"`
	Quiet  int64     // folds, never published
	Lat    Histogram `metric:"out.lat"`
	Sample Histogram
	Inner  foldInner
}

// TestFold: int64 fields sum, histograms merge, nested structs recurse, an
// untagged field folds but is not published, and a nil registry publishes
// nothing.
func TestFold(t *testing.T) {
	node := func(k int64) *foldOuter {
		n := &foldOuter{Sent: k, Quiet: 10 * k, Inner: foldInner{Hits: 100 * k, Raw: 1000 * k}}
		n.Lat.Observe(k)
		n.Sample.Observe(2 * k)
		return n
	}
	var sum, quiet foldOuter
	reg := NewRegistry()
	for k := int64(1); k <= 3; k++ {
		Fold(&sum, node(k), reg)
		Fold(&quiet, node(k), nil)
	}
	if sum.Sent != 6 || sum.Quiet != 60 || sum.Inner.Hits != 600 || sum.Inner.Raw != 6000 {
		t.Fatalf("int64 fields did not sum: %+v", sum)
	}
	if sum.Lat.Count() != 3 || sum.Lat.Sum() != 6 || sum.Sample.Count() != 3 || sum.Sample.Max() != 6 {
		t.Fatalf("histograms did not merge: lat n=%d sum=%d, sample n=%d max=%d",
			sum.Lat.Count(), sum.Lat.Sum(), sum.Sample.Count(), sum.Sample.Max())
	}
	if quiet != sum {
		t.Fatalf("a nil registry changed the fold: %+v, want %+v", quiet, sum)
	}
	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	if want := []string{"in.hits", "out.lat", "out.sent"}; !slices.Equal(names, want) {
		t.Fatalf("published %v, want only the tagged fields %v", names, want)
	}
	if got := reg.Counter("out.sent").Value(); got != 6 {
		t.Fatalf("out.sent = %d, want 6", got)
	}
	if got := reg.Counter("in.hits").Value(); got != 600 {
		t.Fatalf("in.hits = %d, want 600", got)
	}
	if h := reg.Histogram("out.lat"); h.Count() != 3 || h.Sum() != 6 {
		t.Fatalf("out.lat n=%d sum=%d, want 3 and 6", h.Count(), h.Sum())
	}
}

// chromeTrace mirrors the subset of the trace-event format the exporter
// emits; parsing its output back through encoding/json proves the file is
// well-formed.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// syntheticRun is one packet's life: staged on node 0, sent, ejected on
// node 1, polled, handled.
func syntheticRun() []Event {
	return []Event{
		{T: 0, Kind: EvReqStart, Node: 0, Arg: 1},
		{T: 100, Kind: EvStaged, Node: 0, Pkt: 1, Arg: 36, Class: "request"},
		{T: 200, Kind: EvI860SendSta, Node: 0, Pkt: 1},
		{T: 6200, Kind: EvI860SendEnd, Node: 0, Pkt: 1},
		{T: 6300, Kind: EvEjectSta, Node: 1, Pkt: 1},
		{T: 7200, Kind: EvEjectEnd, Node: 1, Pkt: 1},
		{T: 7300, Kind: EvFIFOArrive, Node: 1, Pkt: 1},
		{T: 9000, Kind: EvPolled, Node: 1, Pkt: 1},
		{T: 9100, Kind: EvHandlerStart, Node: 1, Pkt: 1, Arg: 2},
		{T: 9400, Kind: EvHandlerEnd, Node: 1, Pkt: 1, Arg: 2},
	}
}

func TestWriteChromeTraceParsesBack(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, syntheticRun()); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, meta, instants int
	sawFIFO := false
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur < 0 {
				t.Fatalf("negative duration slice: %+v", ev)
			}
			if strings.HasPrefix(ev.Name, "fifo") {
				sawFIFO = true
				if want := (9000.0 - 7300.0) / 1000.0; ev.Dur != want {
					t.Fatalf("fifo residency dur = %f, want %f", ev.Dur, want)
				}
			}
		case "M":
			meta++
		case "i":
			instants++
		default:
			t.Fatalf("unknown phase %q", ev.Ph)
		}
	}
	// 3 matched spans (i860 send, eject, handler) + 1 synthesized FIFO
	// residency.
	if slices != 4 {
		t.Fatalf("slices = %d, want 4", slices)
	}
	if !sawFIFO {
		t.Fatal("no fifo residency slice synthesized")
	}
	// 2 nodes, each with a process_name and 10 thread_name records.
	if meta != 22 {
		t.Fatalf("meta = %d, want 22", meta)
	}
	// EvReqStart and EvStaged render as instants.
	if instants != 2 {
		t.Fatalf("instants = %d, want 2", instants)
	}
}

func TestWriteTimeline(t *testing.T) {
	var buf bytes.Buffer
	WriteTimeline(&buf, syntheticRun())
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(syntheticRun()) {
		t.Fatalf("timeline has %d lines, want %d", len(lines), len(syntheticRun()))
	}
	if !strings.Contains(lines[1], "staged") || !strings.Contains(lines[1], "(request)") {
		t.Fatalf("timeline line lacks kind/class: %q", lines[1])
	}
}

func TestPacketStageStats(t *testing.T) {
	stats := PacketStageStats(syntheticRun())
	if len(stats) == 0 {
		t.Fatal("no stage stats")
	}
	for _, s := range stats {
		if s.Name == "fifo residency" {
			if s.Count != 1 || s.MeanUS != 1.7 {
				t.Fatalf("fifo residency = %+v, want count 1 mean 1.7", s)
			}
			return
		}
	}
	t.Fatal("fifo residency stage missing")
}

func TestDecomposeRejectsEmpty(t *testing.T) {
	if _, err := DecomposeRoundTrip(nil); err == nil {
		t.Fatal("DecomposeRoundTrip accepted an empty event stream")
	}
}
