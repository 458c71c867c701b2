package bench

import (
	"fmt"
	"io"
	"os"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/trace"
)

// Observer wires the shared -trace/-metrics command-line flags: it installs
// the package-level hooks (hw.DefaultTracer, am.DefaultMetrics) that every
// cluster and AM system built during the run picks up, and Finish writes the
// artifacts once the benchmarks have run.
type Observer struct {
	TracePath string
	Metrics   bool
	rec       *trace.Recorder
	reg       *trace.Registry
}

// NewObserver installs the hooks. A zero tracePath / false metrics leaves the
// corresponding hook untouched, so plain runs stay on the nil fast path.
// Either hook forces sweeps off (see sweepWorkers): the collected streams
// are only meaningful from a serial run.
func NewObserver(tracePath string, metrics bool) *Observer {
	o := &Observer{TracePath: tracePath, Metrics: metrics}
	if tracePath != "" {
		o.rec = trace.New()
		hw.DefaultTracer = o.rec
	}
	if metrics {
		o.reg = trace.NewRegistry()
		am.DefaultMetrics = o.reg
	}
	return o
}

// Finish tears the hooks down, writes the Chrome trace-event file, and
// prints the metrics snapshot to w.
func (o *Observer) Finish(w io.Writer) error {
	if o.rec != nil {
		hw.DefaultTracer = nil
		f, err := os.Create(o.TracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, o.rec.Sorted()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (load in https://ui.perfetto.dev)\n",
			o.rec.Len(), o.TracePath)
	}
	if o.reg != nil {
		am.DefaultMetrics = nil
		fmt.Fprintln(w, "# protocol metrics")
		WriteMetricsTable(w, o.reg)
	}
	return nil
}

// WriteMetricsTable prints a registry snapshot as an aligned table.
func WriteMetricsTable(w io.Writer, reg *trace.Registry) {
	trace.WriteMetrics(w, reg.Snapshot())
}
