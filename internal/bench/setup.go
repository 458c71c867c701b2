package bench

import (
	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/trace"
)

// Setup is what a measurement attaches to the cluster it runs on. The zero
// value is the paper's machine: thin nodes, the default protocol options, a
// lossless switch, nothing observing. Every driver in this package builds
// its cluster through a Setup, so a recorder, a fault plan or an option
// reaches a cluster by this one route, and the traced, faulted and ablated
// figures come from the same loop as the plain one.
type Setup struct {
	Wide    bool            // wide nodes instead of thin (Figures 10/11)
	Options *am.Options     // nil = am.DefaultOptions(); the DESIGN §6 ablations set it
	Plan    *faults.Plan    // nil = lossless; the chaos tables set it
	Tracer  *trace.Recorder // nil = hw.DefaultTracer (the commands' -trace)
	Metrics *trace.Registry // nil = am.DefaultMetrics (the commands' -metrics)
}

// cluster builds the n-node machine: node type, tracer and fault plan.
// Drivers that put MPL or an MPI on it stop here; Options and Metrics
// belong to the AM system that am adds.
func (s Setup) cluster(n int) *hw.Cluster {
	cfg := hw.DefaultConfig(n)
	if s.Wide {
		cfg = hw.WideConfig(n)
	}
	cfg.Tracer = s.Tracer
	c := hw.NewCluster(cfg)
	s.Plan.Apply(c)
	return c
}

// am builds the n-node machine and the SP AM system on it.
func (s Setup) am(n int) (*hw.Cluster, *am.System) {
	c := s.cluster(n)
	opt := am.DefaultOptions()
	if s.Options != nil {
		opt = *s.Options
	}
	sys := am.NewWithOptions(c, opt)
	if s.Metrics != nil {
		sys.EnableMetrics(s.Metrics)
	}
	return c, sys
}

// Ran is the state a driver's cluster was left in once its run drained:
// what the chaos tables, the ablations and the observer test read beside
// the timed figure.
type Ran struct {
	Stats  am.Stats      // protocol counters summed over the endpoints
	Losses hw.LossReport // the switch's injected-fault tally
	Events int64         // simulation events executed
}

func ran(c *hw.Cluster, sys *am.System) Ran {
	return Ran{Stats: sys.Totals(), Losses: c.Losses(), Events: c.Events()}
}
