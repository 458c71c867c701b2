package bench

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/trace"
)

// CommonFlags is the command-line surface shared by the five bench
// commands: sweep fan-out (-par) and the observers (-trace, -metrics). The
// commands call drivers whose signatures carry no Setup, so their observers
// travel by the package-level hooks hw.DefaultTracer and am.DefaultMetrics,
// which every cluster and AM system built during the run picks up; this
// type is the only code outside tests that writes them. Register with
// StdFlags, call Activate after flag.Parse, and Finish after the run.
type CommonFlags struct {
	par     *int
	trace   *string
	metrics *bool
	rec     *trace.Recorder
	reg     *trace.Registry
}

// StdFlags registers the shared set on the default FlagSet. Call before
// flag.Parse.
func StdFlags() *CommonFlags {
	return &CommonFlags{
		par:     flag.Int("par", 1, "parallel sweep workers (0 = one per CPU, 1 = serial)"),
		trace:   flag.String("trace", "", "write Chrome trace-event JSON of the run to FILE"),
		metrics: flag.Bool("metrics", false, "print a protocol metrics snapshot after the run"),
	}
}

// Activate applies the parsed flags: it sets Par and installs the hooks. A
// plain run leaves both hooks nil and stays on the nil fast path. A tracer
// or metrics registry is one stream shared by every cluster of the run, so
// installing either overrides a -par request (see sweepWorkers), and the run
// that was asked for is not the run that is observed — said here, once.
// An out-of-range -par is an error, returned before anything is installed.
func (cf *CommonFlags) Activate() error {
	if *cf.par < 0 {
		return fmt.Errorf("-par must be at least 0, where 0 is one worker per CPU (got %d)", *cf.par)
	}
	Par = *cf.par
	if *cf.trace != "" {
		cf.rec = trace.New()
		hw.DefaultTracer = cf.rec
	}
	if *cf.metrics {
		cf.reg = trace.NewRegistry()
		am.DefaultMetrics = cf.reg
	}
	if (*cf.trace != "" || *cf.metrics) && *cf.par != 1 {
		fmt.Fprintf(os.Stderr, "-par %d requested, running serial: -trace/-metrics collect one shared stream\n", *cf.par)
	}
	return nil
}

// Finish tears the hooks down and flushes their artifacts: the metrics
// snapshot to w, and the Chrome trace-event file. Call once, after the last
// benchmark, on every exit path that produced output.
func (cf *CommonFlags) Finish(w io.Writer) error {
	if cf.reg != nil {
		am.DefaultMetrics = nil
		fmt.Fprintln(w, "# protocol metrics")
		trace.WriteMetrics(w, cf.reg.Snapshot())
	}
	if cf.rec != nil {
		hw.DefaultTracer = nil
		return WriteTrace(*cf.trace, cf.rec)
	}
	return nil
}

// WriteTrace writes rec's events to path as Chrome trace-event JSON and
// says so on stderr. A recorder that hit its cap still leaves the file it
// has, and the error says how much the file lacks.
func WriteTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, rec.Sorted()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (load in https://ui.perfetto.dev or chrome://tracing)\n",
		rec.Len(), path)
	return rec.Truncated()
}
