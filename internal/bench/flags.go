package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CommonFlags bundles the command-line surface shared by the five bench
// commands: sweep fan-out (-par) and the observer hooks (-trace, -metrics).
// Register with StdFlags, call Activate after flag.Parse, and Finish after
// the run.
type CommonFlags struct {
	par     *int
	trace   *string
	metrics *bool
	obs     *Observer
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

// Activate applies the parsed flags. The observers-force-serial rule is
// announced here: a tracer or metrics registry is one stream shared by every
// cluster of the run, so installing either overrides a -par request, and
// the run that was asked for is not the run that is observed.
func (cf *CommonFlags) Activate() {
	Par = *cf.par
	cf.obs = NewObserver(*cf.trace, *cf.metrics)
	if (*cf.trace != "" || *cf.metrics) && *cf.par != 1 {
		fmt.Fprintf(os.Stderr, "-par %d requested, running serial: -trace/-metrics collect one shared stream\n", *cf.par)
	}
}

// Finish flushes the observer's artifacts: the trace file, and the metrics
// table to w. Call once, after the last benchmark, on every exit path that
// produced output.
func (cf *CommonFlags) Finish(w io.Writer) error {
	return cf.obs.Finish(w)
}
