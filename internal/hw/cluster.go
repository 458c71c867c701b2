package hw

import (
	"fmt"
	"strings"

	"spam/internal/sim"
	"spam/internal/trace"
)

// DefaultTracer, when non-nil, is attached to every cluster whose Config
// does not name its own recorder. It exists so command-line tools can trace
// benchmark functions that build their clusters internally, without
// threading a recorder through every signature.
var DefaultTracer *trace.Recorder

// DefaultNodePar is the intra-run shard count applied to every cluster whose
// Config does not name its own (the commands' -nodepar flag). 1 — the
// default — runs each simulation serially on one engine; N > 1 partitions
// the nodes across N shard engines advanced as a conservative parallel DES
// with the switch latency as lookahead (see sim.Group). Tracing always
// forces serial.
var DefaultNodePar = 1

// Cluster wires N nodes, their adapters, and a switch onto one simulation
// engine — or, in conservative-parallel mode, onto a group of per-shard
// engines that only communicate through the switch fabric's mailbox edges.
// It is the root object every experiment starts from.
type Cluster struct {
	Eng    *sim.Engine // shard 0's engine in sharded mode
	Nodes  []*Node
	Switch *Switch
	grp    *sim.Group

	// diags are diagnosis callbacks the protocol layers register (see
	// AddDiagnostic); the liveness watchdog invokes them to build its stall
	// report. They run only when no shard is executing, so they may read
	// any node's state.
	diags []func() string
}

// Config selects the hardware variant for a cluster.
type Config struct {
	NumNodes int
	Node     NodeParams
	Adapter  AdapterParams
	Switch   SwitchParams
	Seed     uint64

	// Tracer, when non-nil, records per-packet lifecycle events for this
	// cluster (see internal/trace). Nil falls back to DefaultTracer; both
	// nil means tracing is off and costs nothing.
	Tracer *trace.Recorder

	// NodePar requests conservative-parallel execution with this many
	// shards (0 falls back to DefaultNodePar, 1 is serial; clamped to
	// NumNodes). A non-nil tracer forces serial: the recorder is a single
	// shared stream.
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

// NewCluster builds the cluster described by cfg. With an effective NodePar
// above 1, node i (its processes, TB2 pipelines, and switch ports) is bound
// to shard engine i mod shards, each shard gets a private PacketPool (the
// free lists stay single-threaded: Get/Put always run in the owning shard's
// context), and the switch fabric becomes the only cross-shard channel.
func NewCluster(cfg Config) *Cluster {
	if cfg.NumNodes < 1 {
		panic(fmt.Sprintf("hw: cluster needs at least 1 node, got %d", cfg.NumNodes))
	}
	if cfg.Tracer == nil {
		cfg.Tracer = DefaultTracer
	}
	shards := cfg.NodePar
	if shards == 0 {
		shards = DefaultNodePar
	}
	if shards > cfg.NumNodes {
		shards = cfg.NumNodes
	}
	if shards < 1 || cfg.Tracer != nil || cfg.Switch.Latency <= 0 {
		shards = 1
	}
	engs := make([]*sim.Engine, cfg.NumNodes)
	pools := make([]*PacketPool, cfg.NumNodes)
	var grp *sim.Group
	if shards > 1 {
		grp = sim.NewGroup(cfg.Seed, shards, cfg.Switch.Latency)
		se := grp.Engines()
		sp := make([]*PacketPool, shards)
		for s := range sp {
			sp[s] = NewPacketPool()
		}
		for i := range engs {
			engs[i] = se[i%shards]
			pools[i] = sp[i%shards]
		}
	} else {
		eng := sim.NewEngine(cfg.Seed)
		eng.SetTracer(cfg.Tracer)
		// One packet pool per cluster: the engine runs one callback or
		// process at a time, so the free lists need no locking; parallel
		// sweeps build a cluster (and pool) per worker.
		pool := NewPacketPool()
		for i := range engs {
			engs[i] = eng
			pools[i] = pool
		}
	}
	c := &Cluster{
		Eng:    engs[0],
		Switch: NewSwitch(engs, cfg.Switch, pools, grp),
		grp:    grp,
	}
	for i := 0; i < cfg.NumNodes; i++ {
		n := &Node{ID: i, Eng: engs[i], P: cfg.Node, Mem: &Memory{}, Pool: pools[i]}
		n.Adapter = newTB2(n, c.Switch, cfg.Adapter, cfg.NumNodes)
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Shards reports the number of shard engines driving this cluster (1 when
// serial).
func (c *Cluster) Shards() int {
	if c.grp == nil {
		return 1
	}
	return len(c.grp.Engines())
}

// Events reports how many events the cluster's engines have executed, summed
// over shards.
func (c *Cluster) Events() int64 {
	if c.grp == nil {
		return c.Eng.EventsRun
	}
	var n int64
	for _, e := range c.grp.Engines() {
		n += e.EventsRun
	}
	return n
}

// Spawn starts fn as node id's program (a workload process) on the node's
// own shard engine.
func (c *Cluster) Spawn(id int, name string, fn func(p *sim.Proc, n *Node)) {
	n := c.Nodes[id]
	n.Eng.Go(fmt.Sprintf("n%d:%s", id, name), func(p *sim.Proc) { fn(p, n) })
}

// SpawnAll starts fn on every node, SPMD style.
func (c *Cluster) SpawnAll(name string, fn func(p *sim.Proc, n *Node)) {
	for i := range c.Nodes {
		c.Spawn(i, name, fn)
	}
}

// Run drives the simulation to completion, panicking on deadlock. Sharded
// clusters must run through this method (not Eng.RunAll, which would advance
// only shard 0): it drives the window scheduler, folds the per-shard switch
// counters, and leaves every shard clock — including Eng.Now() — at the
// global finish time, exactly as a serial run would. The run is final: on
// return (or panic) every process still parked — a killed node's detached
// program, a drained daemon — has been released.
func (c *Cluster) Run() {
	defer c.release()
	if c.grp != nil {
		if err := c.grp.Run(0); err != nil {
			panic(err)
		}
		c.Switch.mergeShardStats()
		return
	}
	c.Eng.RunAll()
}

// release frees the processes a finished run left parked, which would
// otherwise pin their goroutines — and through them the whole cluster — for
// the life of the program.
func (c *Cluster) release() {
	engs := []*sim.Engine{c.Eng}
	if c.grp != nil {
		engs = c.grp.Engines()
	}
	for _, e := range engs {
		e.Release()
	}
}

// Kill fail-stops node id at simulated time at: from then on the node
// injects nothing at the fabric and delivers nothing into its receive FIFO,
// and its program process detaches at its next network operation. Kill
// state is time-based (no event is scheduled), so it is deterministic
// across serial and sharded runs; arm it before Run.
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
	if c.grp != nil {
		for _, e := range c.grp.Engines() {
			m -= int64(e.Live())
		}
	} else {
		m -= int64(c.Eng.Live())
	}
	return m
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
// legitimate communication-free stretch of the workload. Works identically
// over serial and sharded (-nodepar) clusters: both engines' Run methods
// are resumable, and slicing by horizon does not perturb event order. Every
// return is a final verdict, so — as with Run — the processes still parked
// are released; the slices in between are pauses and release nothing.
func (c *Cluster) RunChecked(budget sim.Time) error {
	if budget <= 0 {
		panic("hw: RunChecked budget must be positive")
	}
	defer c.release()
	last := c.progressMark() - 1 // first slice always counts as progress
	for horizon := c.Eng.Now() + budget; ; horizon += budget {
		var err error
		if c.grp != nil {
			err = c.grp.Run(horizon)
		} else {
			err = c.Eng.Run(horizon)
		}
		if err != nil {
			return err
		}
		pending := false
		if c.grp != nil {
			pending = c.grp.Pending()
		} else {
			pending = c.Eng.Pending()
		}
		if !pending {
			if c.grp != nil {
				c.Switch.mergeShardStats()
			}
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
	FaultDropped    int64 // injected drop verdicts at the switch
	FaultDuplicated int64
	FaultDelayed    int64
	FaultCorrupted  int64
	Overflow        int64 // receive-FIFO overflow at the adapters
}

// TotalLost is the number of packets that never reached a receive FIFO
// intact-and-once guarantees aside: injected drops plus FIFO overflow.
// (Corrupted packets are delivered and discarded by the protocol layer,
// which counts them separately.)
func (lr LossReport) TotalLost() int64 { return lr.FaultDropped + lr.Overflow }

// Losses gathers the cluster-wide loss accounting.
func (c *Cluster) Losses() LossReport {
	f := c.Switch.Faults
	lr := LossReport{
		FaultDropped:    f.Dropped,
		FaultDuplicated: f.Duplicated,
		FaultDelayed:    f.Delayed,
		FaultCorrupted:  f.Corrupted,
	}
	for _, n := range c.Nodes {
		lr.Overflow += n.Adapter.DroppedOverflow
	}
	return lr
}

// DroppedPackets totals every packet lost in flight: injected switch drops
// plus receive-FIFO overflow. Use Losses for the per-source breakdown.
func (c *Cluster) DroppedPackets() int64 { return c.Losses().TotalLost() }
