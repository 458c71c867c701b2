package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spam/internal/hw"
)

func smokeOptions(t *testing.T, trace bool) options {
	return options{seed: 1, reps: 1, trace: trace, sz: smokeSizes(), traceFile: filepath.Join(t.TempDir(), "trace.json")}
}

func allNames() []string {
	var names []string
	for _, w := range workloads(smokeSizes()) {
		names = append(names, w.name)
	}
	return names
}

// TestSmokeEndToEnd runs every workload untraced at smoke scale and wants
// every end-to-end metric present, finite and never 0.
func TestSmokeEndToEnd(t *testing.T) {
	rep, err := runAll(allNames(), smokeOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Workloads {
		if !m.Correct || m.Failed != 0 || m.Attempted != m.Ops {
			t.Errorf("%s: correct=%v failed=%d attempted=%d ops=%d: %s", m.Name, m.Correct, m.Failed, m.Attempted, m.Ops, m.Error)
		}
		if len(m.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", m.Name, len(m.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			v, ok := m.Metrics[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (present %v)", m.Name, d.Name, v, ok)
			}
		}
	}
}

// TestSmokeTraced runs the traced form twice: every per-layer metric and
// the ladder must be there, the span file must parse, and the two runs must
// agree on every simulated value.
func TestSmokeTraced(t *testing.T) {
	opt := smokeOptions(t, true)
	a, err := runAll(allNames(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runAll(allNames(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ladder) != 5 {
		t.Errorf("ladder has %d rungs, want 5", len(a.Ladder))
	}
	for _, rg := range a.Ladder {
		if rg.SimUS <= 0 || rg.HostNS <= 0 {
			t.Errorf("ladder rung %+v", rg)
		}
	}
	for i, m := range a.Workloads {
		if !m.Correct {
			t.Fatalf("%s: %s", m.Name, m.Error)
		}
		if len(m.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", m.Name, len(m.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := m.Metrics[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v)", m.Name, d.Name, v, ok)
			}
			if d.Clock == simClock && v.Value != b.Workloads[i].Metrics[d.Name].Value {
				t.Errorf("%s: %s differs between two runs: %v, %v", m.Name, d.Name, v.Value, b.Workloads[i].Metrics[d.Name].Value)
			}
		}
		if m.Metrics["sim.nodepar2_identical"].Value != 1 {
			t.Errorf("%s: NodePar=2 repetition differs from serial", m.Name)
		}
		if kv := strings.HasPrefix(m.Name, "kv_"); kv != (m.Metrics["kv.r1.goodput_rps"].Value > 0) || kv == (m.Metrics["sim.events_per_op"].Value > 0) {
			t.Errorf("%s: kv rung goodput %v, events/op %v", m.Name, m.Metrics["kv.r1.goodput_rps"].Value, m.Metrics["sim.events_per_op"].Value)
		}
	}
	buf, err := os.ReadFile(opt.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ Spans []span }
	if err := json.Unmarshal(buf, &tf); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS || s.Parent >= s.ID {
			t.Errorf("span %+v", s)
		}
		if strings.HasPrefix(s.Name, "workload/") {
			roots++
		}
	}
	if roots != len(a.Workloads) {
		t.Errorf("%d workload spans, want %d", roots, len(a.Workloads))
	}
}

// TestDefaultsGuard: a leaked shard setting must stop the measurement.
func TestDefaultsGuard(t *testing.T) {
	hw.DefaultNodePar = 2
	defer func() { hw.DefaultNodePar = 1 }()
	m := measure(workloads(smokeSizes())[0], smokeOptions(t, false), nil, nil)
	if m.Correct || !strings.Contains(m.Error, "DefaultNodePar=2") {
		t.Errorf("measured with hw.DefaultNodePar=2: %+v", m)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one = %v", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n     int64
		label string
		ok    bool
	}{
		{19, "", false}, {20, "p50", true}, {99, "p50", true}, {100, "p90", true},
		{999, "p90", true}, {1000, "p99", true}, {10000, "p999", true}, {100000, "p9999", true},
	} {
		if _, label, ok := tailQuantile(c.n); label != c.label || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %q, %v; want %q, %v", c.n, label, ok, c.label, c.ok)
		}
	}
}

func TestSatRate(t *testing.T) {
	good := func(rate float64) rung { return rung{rate, rate, 900, 0} }
	for _, c := range []struct {
		name   string
		ladder []rung
		want   float64
	}{
		{"all served", []rung{good(50e3), good(100e3)}, 100e3},
		{"tail over the limit", []rung{good(50e3), {100e3, 100e3, 5001, 0}}, 50e3},
		{"backlog grows", []rung{good(50e3), {100e3, 89e3, 900, 0}}, 50e3},
		{"too many fail", []rung{good(50e3), {100e3, 100e3, 900, 0.002}}, 50e3},
		{"served above a bad rung", []rung{{50e3, 40e3, 900, 0}, good(100e3)}, 100e3},
		{"none", []rung{{50e3, 50e3, 9000, 0}}, 0},
	} {
		if got := satRate(c.ladder); got != c.want {
			t.Errorf("%s: satRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	hostMetric := func(reps ...float64) metricValue {
		return hostValue(endToEnd[1], reps) // host_us_per_op
	}
	mk := func(us metricValue, ops float64) *report {
		return &report{Seed: 1, Workloads: []*measured{{Name: "am_echo", Metrics: map[string]metricValue{
			"host_us_per_op": us,
			"sim_ops_per_s":  {Value: ops, Unit: "ops/sim_s", Clock: simClock},
		}}}}
	}
	base := mk(hostMetric(100, 101, 99), 19560)
	for _, c := range []struct {
		name  string
		b     *report
		worse int
		want  string
	}{
		{"same", mk(hostMetric(100, 101, 99), 19560), 0, " ok"},
		{"within bound", mk(hostMetric(115, 116, 114), 19560), 0, " ok"},
		{"slower than the bound", mk(hostMetric(130, 131, 129), 19560), 1, vWorse},
		{"noisy", mk(hostMetric(80, 130, 180), 19560), 0, vUnresolved},
		{"noisy but every rep faster", mk(hostMetric(50, 70, 90), 19560), 0, " ok"},
		{"simulated drift, even upwards", mk(hostMetric(100, 101, 99), 19561), 1, vWorse},
	} {
		var sb strings.Builder
		if got := compareReports(&sb, base, c.b); got != c.worse || !strings.Contains(sb.String(), c.want) {
			t.Errorf("%s: %d worse, want %d with %q in:\n%s", c.name, got, c.worse, c.want, sb.String())
		}
	}

	dir := t.TempDir()
	write := func(name string, r *report) string {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := write("a.json", base), write("same.json", mk(hostMetric(100, 101, 99), 19560)), write("slow.json", mk(hostMetric(130, 131, 129), 19560))
	if err := compareFiles(&strings.Builder{}, a, same); err != nil {
		t.Errorf("equal reports: %v", err)
	}
	if err := compareFiles(&strings.Builder{}, a, slow); err == nil {
		t.Error("a slower report compared as no worse")
	}
	other := mk(hostMetric(100, 101, 99), 19560)
	other.Seed = 2
	if err := compareFiles(&strings.Builder{}, a, write("seed2.json", other)); err == nil {
		t.Error("reports at two seeds compared")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, equal to the metric tables and workload list this program uses.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	names := allNames()
	if len(bj.Workloads) != len(names) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(names))
	}
	for i, w := range bj.Workloads {
		if w.Name != names[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, w.Name, len(w.Why), names[i])
		}
	}
	check := func(what string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d here", what, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: %+v, want %+v", what, i, g, d)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 || d.Bound > 0.25 {
				t.Errorf("%s %s: outside the contract's limits", what, d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}
