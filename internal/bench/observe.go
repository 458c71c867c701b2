package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"spam/internal/trace"
)

// CommonFlags is the command-line surface shared by the five bench
// commands: sweep fan-out (-par) and the observers (-trace, -metrics).
// Register with StdFlags, build the run's Setup with Setup after
// flag.Parse and hand it to every driver the command calls, and call Finish
// after the run.
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

// OneMode is the error for a command line that sets more than one of the
// named mode flags (names without the dash) away from its default: a
// command runs one mode, and would drop the second silently. Call after
// flag.Parse.
func OneMode(names ...string) error {
	var set []string
	flag.Visit(func(f *flag.Flag) { // in lexical order
		if slices.Contains(names, f.Name) && f.Value.String() != f.DefValue {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 1 {
		return fmt.Errorf("%s must be the only mode flag (got %s)", set[0], strings.Join(set, " "))
	}
	return nil
}

// Setup is the Setup the parsed flags ask for: -par's worker count and,
// when asked for, the recorder and registry every machine of the run feeds.
// A plain run has neither and stays on the nil fast path. An out-of-range
// -par is an error. Call once.
func (cf *CommonFlags) Setup() (Setup, error) {
	if *cf.par < 0 {
		return Setup{}, fmt.Errorf("-par must be at least 0, where 0 is one worker per CPU (got %d)", *cf.par)
	}
	if *cf.trace != "" {
		cf.rec = trace.New()
	}
	if *cf.metrics {
		cf.reg = trace.NewRegistry()
	}
	return Setup{Par: *cf.par, Tracer: cf.rec, Metrics: cf.reg}, nil
}

// Finish flushes the observers' artifacts: the metrics snapshot to w, and
// the Chrome trace-event file. Call once, after the last benchmark, on every
// exit path that produced output.
func (cf *CommonFlags) Finish(w io.Writer) error {
	if cf.reg != nil {
		fmt.Fprintln(w, "# protocol metrics")
		trace.WriteMetrics(w, cf.reg.Snapshot())
	}
	if cf.rec != nil {
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
