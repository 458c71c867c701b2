package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CommonFlags bundles the command-line surface shared by the five bench
// commands: sweep fan-out (-par), intra-run PDES sharding (-nodepar), and
// the observer hooks (-trace, -metrics). Register with StdFlags, call
// Activate after flag.Parse, and Finish after the run.
type CommonFlags struct {
	par     *int
	nodepar *int
	trace   *string
	metrics *bool
	obs     *Observer
}

// StdFlags registers the shared set on the default FlagSet. Call before
// flag.Parse.
func StdFlags() *CommonFlags {
	return &CommonFlags{
		par:     flag.Int("par", 1, "parallel sweep workers (0 = one per CPU, 1 = serial)"),
		nodepar: flag.Int("nodepar", 1, "intra-run PDES shards per cluster (1 = serial; output is identical at every count)"),
		trace:   flag.String("trace", "", "write Chrome trace-event JSON of the run to FILE"),
		metrics: flag.Bool("metrics", false, "print a protocol metrics snapshot after the run"),
	}
}

// Activate applies the parsed flags, exiting with status 2 on a -nodepar
// below 1. The observers-force-serial rule is announced here: a tracer or
// metrics registry is one stream shared by every cluster of the run, so
// installing either overrides a -nodepar or -par request, and the run that
// was asked for is not the run that is observed.
func (cf *CommonFlags) Activate() {
	if *cf.nodepar < 1 {
		fmt.Fprintf(os.Stderr, "usage: -nodepar N wants a shard count of at least 1, got %d\n", *cf.nodepar)
		os.Exit(2)
	}
	Par = *cf.par
	cf.obs = NewObserver(*cf.trace, *cf.metrics)
	SetNodePar(*cf.nodepar)
	if (*cf.trace != "" || *cf.metrics) && (*cf.nodepar > 1 || *cf.par != 1) {
		fmt.Fprintf(os.Stderr, "-nodepar %d -par %d requested, running serial: -trace/-metrics collect one shared stream\n",
			*cf.nodepar, *cf.par)
	}
}

// Finish flushes the observer's artifacts: the trace file, and the metrics
// table to w. Call once, after the last benchmark, on every exit path that
// produced output.
func (cf *CommonFlags) Finish(w io.Writer) error {
	return cf.obs.Finish(w)
}
