package bench

import (
	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/trace"
)

// Setup is what a measurement attaches to the machines it runs on. The zero
// value is the paper's machine: thin nodes, the default protocol options, a
// lossless switch, nothing observing, sweeps fanned over every CPU. Every
// driver in this package takes its Setup from its caller, so a recorder, a
// registry, a fault plan, an option or the sweep width reaches a run by this
// one route, and the traced, faulted and ablated figures come from the same
// loop as the plain one.
type Setup struct {
	Wide    bool            // wide nodes instead of thin (Figures 10/11)
	Options *am.Options     // nil = am.DefaultOptions(); the DESIGN §6 ablations set it
	Plan    *faults.Plan    // nil = lossless; the chaos tables set it
	Tracer  *trace.Recorder // nil = untraced (the commands' -trace)
	Metrics *trace.Registry // nil = no metrics (the commands' -metrics)
	Par     int             // sweep workers, as -par: 0 one per CPU, 1 serial
}

// cluster builds the n-node machine: node type and fault plan. Drivers
// that put MPL or an MPI on it attach the observers once that is built.
func (s Setup) cluster(n int) *hw.Cluster {
	cfg := hw.DefaultConfig(n)
	if s.Wide {
		cfg = hw.WideConfig(n)
	}
	c := hw.NewCluster(cfg)
	s.Plan.Apply(c)
	return c
}

// am builds the n-node machine and the SP AM system on it, observed.
func (s Setup) am(n int) (*hw.Cluster, *am.System) {
	c := s.cluster(n)
	opt := am.DefaultOptions()
	if s.Options != nil {
		opt = *s.Options
	}
	sys := am.NewWithOptions(c, opt)
	s.observe(c, sys)
	return c, sys
}

// observe attaches s's observers to a machine that is already built, before
// it runs: the recorder to its engine and the registry to its AM system (nil
// for a machine without one). It is the one place observers reach a machine,
// whichever constructor built it.
func (s Setup) observe(c *hw.Cluster, sys *am.System) {
	c.Eng.SetTracer(s.Tracer)
	if sys != nil && s.Metrics != nil {
		sys.EnableMetrics(s.Metrics)
	}
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
