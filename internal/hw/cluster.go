package hw

import (
	"fmt"
	"strings"

	"spam/internal/sim"
	"spam/internal/trace"
)

// Accepted and ignored: benchmark/ sets and reads DefaultNodePar, and
// checks that the recorder is nil. Nothing in this module reads either; a
// recorder reaches a cluster by Engine.SetTracer.
var (
	DefaultNodePar = 1
	DefaultTracer  *trace.Recorder
)

// Cluster wires N nodes, their adapters, and a switch onto one simulation
// engine. It is the root object every experiment starts from.
type Cluster struct {
	Eng    *sim.Engine
	Nodes  []*Node
	Switch *Switch

	// diags are diagnosis callbacks the protocol layers register (see
	// AddDiagnostic); the liveness watchdog invokes them between slices of
	// the run to build its stall report.
	diags []func() string
	// ends are the run-end callbacks the protocol layers register (see
	// OnRunEnd).
	ends []func()
}

// Config selects the hardware variant for a cluster.
type Config struct {
	NumNodes int
	Node     NodeParams
	Adapter  AdapterParams
	Switch   SwitchParams
	Seed     uint64

	// NodePar is accepted and ignored: benchmark/ sets it.
	NodePar int
}

// DefaultConfig returns an n-node thin-node SP, the machine of most of the
// paper's measurements.
func DefaultConfig(n int) Config {
	return Config{
		NumNodes: n,
		Node:     ThinNode(),
		Adapter:  DefaultAdapter(),
		Switch:   DefaultSwitch(),
		Seed:     1,
	}
}

// WideConfig returns an n-node wide-node SP (Figures 10–11).
func WideConfig(n int) Config {
	c := DefaultConfig(n)
	c.Node = WideNode()
	return c
}

// NewCluster builds the cluster described by cfg: one engine and one
// packet pool. The engine runs one callback or process at a time, so the
// free lists need no locking; parallel sweeps build a cluster (and pool)
// per worker.
func NewCluster(cfg Config) *Cluster {
	if cfg.NumNodes < 1 {
		panic(fmt.Sprintf("hw: cluster needs at least 1 node, got %d", cfg.NumNodes))
	}
	eng := sim.NewEngine(cfg.Seed)
	pool := NewPacketPool()
	c := &Cluster{
		Eng:    eng,
		Switch: NewSwitch(eng, cfg.NumNodes, cfg.Switch, pool),
	}
	for i := 0; i < cfg.NumNodes; i++ {
		n := &Node{ID: i, Eng: eng, P: cfg.Node, Mem: &Memory{}, Pool: pool}
		n.Adapter = newTB2(n, c.Switch, cfg.Adapter, cfg.NumNodes)
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Events reports how many events the cluster's engine has executed.
func (c *Cluster) Events() int64 { return c.Eng.EventsRun }

// Spawn starts fn as node id's program (a workload process).
func (c *Cluster) Spawn(id int, name string, fn func(p *sim.Proc, n *Node)) {
	n := c.Nodes[id]
	n.Eng.Go(fmt.Sprintf("n%d:%s", id, name), func(p *sim.Proc) { fn(p, n) })
}

// Run drives the simulation to completion, panicking on deadlock. The run
// is final: on return (or panic) every process still parked — a killed
// node's detached program, a drained daemon — has been released, which
// would otherwise pin its goroutine, and through it the whole cluster, for
// the life of the program — and the run-end callbacks have been called.
func (c *Cluster) Run() {
	defer c.end()
	c.Eng.RunAll()
}

// end releases the processes still parked, then calls the run-end callbacks
// in registration order.
func (c *Cluster) end() {
	c.Eng.Release()
	for _, fn := range c.ends {
		fn()
	}
}

// Kill fail-stops node id at simulated time at: from then on the node
// injects nothing at the fabric and delivers nothing into its receive FIFO,
// and its program process detaches at its next network operation. Kill
// state is time-based (no event is scheduled); arm it before Run.
func (c *Cluster) Kill(id int, at sim.Time) {
	c.Nodes[id].Kill(at)
	c.Switch.SetKillTime(id, at)
}

// AddDiagnostic registers a callback that renders one protocol layer's view
// of the cluster (window state, unacknowledged sequences, ...) for the
// liveness watchdog's stall report.
func (c *Cluster) AddDiagnostic(fn func() string) {
	c.diags = append(c.diags, fn)
}

// OnRunEnd registers a callback that Run and RunChecked call on every
// return. A run is final, so the callback runs once: a protocol layer
// publishes its counters from one, and nothing mirrors them live.
func (c *Cluster) OnRunEnd(fn func()) {
	c.ends = append(c.ends, fn)
}

// WatchdogError reports that the simulation made no delivery progress for a
// full watchdog budget: the structured alternative to a silently spinning
// run when the workload is wedged on traffic that can never arrive.
type WatchdogError struct {
	At     sim.Time // simulated time the stall was detected
	Budget sim.Time // the no-progress budget that elapsed
	Report string   // diagnosis collected from AddDiagnostic callbacks
}

func (e *WatchdogError) Error() string {
	s := fmt.Sprintf("hw: liveness watchdog: no delivery progress for %v (at t=%v)", e.Budget, e.At)
	if e.Report != "" {
		s += "\n" + e.Report
	}
	return s
}

// progressMark is the watchdog's liveness signal: packets placed into (or
// overflowing at) receive FIFOs plus workload processes finished. Fabric
// injections are deliberately excluded — a wedged protocol keeps probing
// forever, and those sends must not count as progress.
func (c *Cluster) progressMark() int64 {
	var m int64
	for _, n := range c.Nodes {
		m += n.Adapter.Delivered + n.Adapter.DroppedOverflow
	}
	return m - int64(c.Eng.Live())
}

func (c *Cluster) diagnose() string {
	var b strings.Builder
	for _, fn := range c.diags {
		if s := fn(); s != "" {
			if b.Len() > 0 {
				b.WriteByte('\n')
			}
			b.WriteString(s)
		}
	}
	return b.String()
}

// RunChecked drives the simulation like Run, but in bounded slices of
// budget simulated time, checking for delivery progress between slices. If
// a full budget elapses with no packet delivered anywhere and no workload
// process finishing, it stops and returns a *WatchdogError carrying the
// registered diagnostics instead of spinning forever. Deadlocks are
// returned as errors rather than panics. budget must exceed the longest
// legitimate communication-free stretch of the workload. Engine.Run is
// resumable, and slicing by horizon does not perturb event order. Every
// return is a final verdict, so — as with Run — the processes still parked
// are released and the run-end callbacks called; the slices in between are
// pauses and do neither.
func (c *Cluster) RunChecked(budget sim.Time) error {
	if budget <= 0 {
		panic("hw: RunChecked budget must be positive")
	}
	defer c.end()
	last := c.progressMark() - 1 // first slice always counts as progress
	for horizon := c.Eng.Now() + budget; ; horizon += budget {
		if err := c.Eng.Run(horizon); err != nil {
			return err
		}
		if !c.Eng.Pending() {
			return nil
		}
		cur := c.progressMark()
		if cur == last {
			return &WatchdogError{At: c.Eng.Now(), Budget: budget, Report: c.diagnose()}
		}
		last = cur
	}
}

// LossReport breaks packet-loss accounting into its distinguishable
// sources: faults injected at the fabric (by verdict kind) versus
// receive-FIFO overflow at the adapters — the SP's one organic loss mode.
type LossReport struct {
	Faults   FaultStats // the switch's applied fault verdicts
	Overflow int64      // receive-FIFO overflow at the adapters
}

// TotalLost is the number of packets that never reached a receive FIFO
// intact-and-once guarantees aside: injected drops plus FIFO overflow.
// (Corrupted packets are delivered and discarded by the protocol layer,
// which counts them separately.)
func (lr LossReport) TotalLost() int64 { return lr.Faults.Dropped + lr.Overflow }

// Losses gathers the cluster-wide loss accounting.
func (c *Cluster) Losses() LossReport {
	lr := LossReport{Faults: c.Switch.Faults}
	for _, n := range c.Nodes {
		lr.Overflow += n.Adapter.DroppedOverflow
	}
	return lr
}
