// Command benchmark is the repository's benchmark: six workloads measured
// on two clocks (simulated time, which is deterministic, and host time,
// which is what the simulator itself costs), a ladder that adds one layer
// per rung from sim to kv, and a traced run that gives every layer's
// counters. README.md in this directory defines every workload and metric.
//
// The driver's form runs one workload and prints one JSON line:
//
//	benchmark -workload am_echo -seed 1 -seconds 18 -trace 0
//
// Without -workload every workload (or those named by -only) runs serially
// in this process and a full report is printed, or written to -out;
// -compare a.json b.json judges two such reports by the per-metric bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// defaultTraceFile is where a traced run writes its spans, relative to this
// directory (run.sh and `go run .` both start here).
const defaultTraceFile = "out/trace.json"

// options are the dials of one invocation. Op counts are not among them:
// they belong to the workload definitions.
type options struct {
	seed    uint64
	seconds float64 // measure each workload for this long …
	reps    int     // … or, when > 0, for exactly this many repetitions
	trace   bool
	sz      sizes

	traceFile string // where a traced run writes its spans
}

// metricValue is one reported number. Host metrics are medians; Reps holds
// the per-repetition values the median, Min and Max were taken from.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Clock string    `json:"clock,omitempty"`
	Min   float64   `json:"min,omitempty"`
	Max   float64   `json:"max,omitempty"`
	Reps  []float64 `json:"reps,omitempty"`
}

// measured is one workload's result.
type measured struct {
	Name      string                 `json:"name"`
	Ops       int                    `json:"ops_per_rep"`
	Reps      int                    `json:"reps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Error     string                 `json:"error,omitempty"`
	Tail      *tailInfo              `json:"latency_tail,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostValue is the median of per-rep host values, with its spread kept.
func hostValue(d metricDef, reps []float64) metricValue {
	return metricValue{Value: median(reps), Unit: d.Unit, Clock: d.Clock, Min: slices.Min(reps), Max: slices.Max(reps), Reps: reps}
}

// newRep prepares one repetition. collect turns on the per-layer counters;
// spans are recorded only when tr is non-nil as well.
func newRep(w workload, opt options, nodePar int, collect bool, tr *tracer) *rep {
	r := &rep{seed: opt.seed, nodePar: nodePar}
	if collect {
		r.tally, r.vals = map[string]float64{}, map[string]float64{}
		r.tr = tr
		r.collect = true
	}
	r.root = r.tr.begin(0, "workload/"+w.name)
	w.run(r)
	r.deriveCounts(w.ops)
	r.tr.end(r.root, nil)
	return r
}

// sameSim reports whether two reps agree on everything simulated. Events
// are left out: they count one engine's work, so a sharded rep reads lower.
func sameSim(a, b *rep) error {
	if a.simNS != b.simNS || a.failed != b.failed {
		return fmt.Errorf("simulated %d ns, %d failed against %d ns, %d failed", a.simNS, a.failed, b.simNS, b.failed)
	}
	if a.vals == nil || b.vals == nil {
		return nil
	}
	for _, d := range perLayer {
		if d.Clock == simClock && d.Name != "sim.events_per_op" && a.vals[d.Name] != b.vals[d.Name] {
			return fmt.Errorf("%s: %v against %v", d.Name, a.vals[d.Name], b.vals[d.Name])
		}
	}
	return nil
}

// minReps is the fewest untraced repetitions a median is taken over.
const minReps = 3

// measure runs w for the configured time or repetition count and reduces
// the repetitions to named metrics. End-to-end metrics come from untraced
// repetitions only; with opt.trace every other repetition collects the
// layer counters and records spans, and the run ends with one NodePar=2
// repetition. lad supplies the workload-independent ladder metrics.
func measure(w workload, opt options, tr *tracer, lad *ladder) *measured {
	m := &measured{Name: w.name, Ops: w.ops, Metrics: map[string]metricValue{}}
	fail := func(err error) *measured {
		m.Error = err.Error()
		return m
	}
	if err := checkDefaults(); err != nil {
		return fail(err)
	}
	var plain, traced []*rep
	start := time.Now()
	for i := 0; ; i++ {
		if opt.reps > 0 {
			if len(plain) >= opt.reps && (!opt.trace || len(traced) >= opt.reps) {
				break
			}
		} else if len(plain) >= minReps && time.Since(start).Seconds() >= opt.seconds {
			break
		}
		collect := opt.trace && i%2 == 1
		r := newRep(w, opt, 1, collect, tr)
		if r.err != nil {
			return fail(r.err)
		}
		if collect {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		m.Attempted += w.ops
		m.Failed += r.failed
	}
	m.Reps = len(plain) + len(traced)
	for _, r := range append(plain[:len(plain):len(plain)], traced...) {
		err := sameSim(plain[0], r)
		if err == nil && r.collect {
			err = sameSim(traced[0], r)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: two repetitions of one seed differ: %w", w.name, err))
		}
	}

	perRep := func(reps []*rep, f func(*rep) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	runS := func(r *rep) float64 { return r.run.Seconds() }
	if !opt.trace {
		for _, d := range endToEnd {
			switch d.Name {
			case "setup_s":
				m.Metrics[d.Name] = hostValue(d, perRep(plain, func(r *rep) float64 { return r.setup.Seconds() }))
			case "host_us_per_op":
				m.Metrics[d.Name] = hostValue(d, perRep(plain, func(r *rep) float64 { return runS(r) * 1e6 / float64(w.ops) }))
			case "sim_ops_per_s":
				m.Metrics[d.Name] = metricValue{Value: float64(w.ops) * 1e9 / float64(plain[0].simNS), Unit: d.Unit, Clock: d.Clock}
			}
		}
		m.Correct = true
		return m
	}

	serial := median(perRep(plain, runS))
	if err := checkDefaults(); err != nil {
		return fail(err)
	}
	sharded := newRep(w, opt, 2, true, nil)
	if err := checkDefaults(); err != nil { // the shard setting must not outlive its rep
		return fail(err)
	}
	if sharded.err != nil {
		return fail(sharded.err)
	}
	extra := map[string]float64{
		"trace.overhead_ratio":    median(perRep(traced, runS)) / serial,
		"sim.nodepar2_wall_ratio": sharded.run.Seconds() / serial,
		"sim.nodepar2_identical":  1,
	}
	if err := sameSim(traced[0], sharded); err != nil {
		fmt.Fprintf(os.Stderr, "%s: NodePar=2 differs from serial: %v\n", w.name, err)
		extra["sim.nodepar2_identical"] = 0
	}
	for _, d := range perLayer {
		if v, ok := extra[d.Name]; ok {
			m.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit, Clock: d.Clock}
		} else if v, ok := lad.Vals[d.Name]; ok {
			m.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit, Clock: d.Clock}
		} else if d.Clock == hostClock {
			m.Metrics[d.Name] = hostValue(d, perRep(traced, func(r *rep) float64 { return r.vals[d.Name] }))
		} else {
			m.Metrics[d.Name] = metricValue{Value: traced[0].vals[d.Name], Unit: d.Unit, Clock: d.Clock}
		}
	}
	m.Tail = traced[0].tail
	m.Correct = true
	return m
}

// report is what a full run prints.
type report struct {
	Schema     string       `json:"schema"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NProc      int          `json:"nproc"`
	GoVersion  string       `json:"go_version"`
	GitSHA     string       `json:"git_sha"`
	Seed       uint64       `json:"seed"`
	Seconds    float64      `json:"seconds"`
	RepsFlag   int          `json:"reps_flag"`
	Trace      bool         `json:"trace"`
	Ladder     []ladderRung `json:"ladder,omitempty"`
	Workloads  []*measured  `json:"workloads"`
}

// gitSHA is the revision the go tool stamped into the binary; a checkout
// that is not a git repository has none.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runAll measures the named workloads in order and, on a traced run, the
// ladder first and the span file last.
func runAll(names []string, opt options) (*report, error) {
	rep := &report{
		Schema: "spam-benchmark/v1", GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), GitSHA: gitSHA(), Seed: opt.seed, Seconds: opt.seconds, RepsFlag: opt.reps, Trace: opt.trace,
	}
	var tr *tracer
	var lad *ladder
	if opt.trace {
		if err := checkDefaults(); err != nil {
			return nil, err
		}
		tr = newTracer()
		id := tr.begin(0, "ladder")
		var err error
		if lad, err = runLadder(opt.sz.ladder); err != nil {
			return nil, err
		}
		tr.end(id, lad.Vals)
		rep.Ladder = lad.Rungs
	}
	all := workloads(opt.sz)
	for _, name := range names {
		i := 0
		for i < len(all) && all[i].name != name {
			i++
		}
		if i == len(all) {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		rep.Workloads = append(rep.Workloads, measure(all[i], opt, tr, lad))
	}
	if tr != nil {
		if err := tr.write(opt.traceFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// driverLine is the one-line result the driver reads.
func driverLine(m *measured) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{m.Correct, m.Attempted, m.Failed, map[string]mv{}}
	for k, v := range m.Metrics {
		out.Metrics[k] = mv{v.Value, v.Unit}
	}
	return json.Marshal(out)
}

func main() {
	workloadFlag := flag.String("workload", "", "run this one workload and print the driver's one-line result")
	only := flag.String("only", "", "comma-separated workloads for the full report (default: all)")
	seed := flag.Uint64("seed", 1, "workload seed (hw.Config.Seed / kv.Config.Seed and generated payloads)")
	seconds := flag.Float64("seconds", 18, "measure each workload for this many seconds")
	reps := flag.Int("reps", 0, "measure exactly this many repetitions instead of -seconds")
	trace := flag.Int("trace", 0, "1: traced run — per-layer metrics, ladder, spans in "+defaultTraceFile)
	out := flag.String("out", "", "write the full report to this file instead of standard output")
	compare := flag.Bool("compare", false, "compare two full reports: -compare a.json b.json")
	flag.Parse()
	if err := run(*workloadFlag, *only, *out, *compare, flag.Args(),
		options{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace == 1, sz: fullSizes(), traceFile: defaultTraceFile}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a workload's outputs failed verification")

func run(one, only, out string, compare bool, args []string, opt options) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	var names []string
	switch {
	case one != "":
		names = []string{one}
	case only != "":
		names = strings.Split(only, ",")
	default:
		for _, w := range workloads(opt.sz) {
			names = append(names, w.name)
		}
	}
	rep, err := runAll(names, opt)
	if err != nil {
		return err
	}
	var buf []byte
	if one != "" {
		buf, err = driverLine(rep.Workloads[0])
	} else {
		buf, err = json.MarshalIndent(rep, "", " ")
	}
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out != "" && one == "" {
		err = os.WriteFile(out, buf, 0o644)
	} else {
		_, err = os.Stdout.Write(buf)
	}
	if err != nil {
		return err
	}
	for _, m := range rep.Workloads {
		if !m.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", m.Name, m.Error)
			err = errIncorrect
		}
	}
	return err
}
