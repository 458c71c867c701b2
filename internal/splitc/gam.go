package splitc

import (
	"fmt"

	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
)

// Machine describes one Table-4 machine: the paper compares Split-C on the
// SP against the TMC CM-5, the Meiko CS-2 and the U-Net ATM cluster. Their
// communication layers are not rebuilt gate-by-gate; their four published
// parameters are what the comparison uses, so a calibrated LogGP-style
// model (a Generic-Active-Messages machine, GAMPlatform) carries the
// runtime's messages.
type Machine struct {
	Name string
	// OSend/ORecv are the per-message host overheads (their sum is the
	// paper's "Msg Overhead" column).
	OSend, ORecv sim.Time
	// Latency is the one-way network latency excluding overheads, chosen
	// so 2*(OSend+ORecv) + 2*Latency matches Table 4's round trip.
	Latency sim.Time
	// MBps is the per-node link bandwidth (Table 4's "Bandwidth").
	MBps float64
	// CPUScale multiplies computation time relative to the SP's 66 MHz
	// POWER2 (>1 means a slower processor).
	CPUScale float64
}

// CM5 returns the TMC CM-5 of Table 4: slow Sparc-2 processors but a very
// low-overhead, low-latency network.
func CM5() Machine {
	return Machine{Name: "TMC CM-5", OSend: hw.US(1.6), ORecv: hw.US(1.4),
		Latency: hw.US(1.4), MBps: 10, CPUScale: 4.3}
}

// CS2 returns the Meiko CS-2: higher overhead, good bandwidth.
func CS2() Machine {
	return Machine{Name: "Meiko CS-2", OSend: hw.US(5.6), ORecv: hw.US(5.4),
		Latency: hw.US(0.8), MBps: 39, CPUScale: 2.6}
}

// UNetATM returns the U-Net ATM cluster of Sparc-20s: low overhead but high
// network latency and modest bandwidth.
func UNetATM() Machine {
	return Machine{Name: "U-Net ATM", OSend: hw.US(1.6), ORecv: hw.US(1.4),
		Latency: hw.US(27.4), MBps: 14, CPUScale: 1.9}
}

// Table4 returns the three machines of Table 4, in the paper's order.
func Table4() []Machine { return []Machine{CM5(), CS2(), UNetATM()} }

// headerBytes is the modeled per-message wire header.
const headerBytes = 8

// idlePoll is what an empty poll costs: something, on every machine.
const idlePoll = 500 * hw.Nanosecond

// GAMPlatform is a cluster of one Table-4 machine's nodes sharing one
// simulation engine.
type GAMPlatform struct {
	Runtimes
	Eng   *sim.Engine
	m     Machine
	nodes []*gnode
	quiesce
}

// NewGAM builds an n-node machine m with heapBytes of Split-C global
// segment per node.
func NewGAM(m Machine, n, heapBytes int) *GAMPlatform {
	pl := &GAMPlatform{Eng: sim.NewEngine(7), m: m}
	for i := 0; i < n; i++ {
		rt := newRT(i, n, heapBytes, m.CPUScale)
		nd := &gnode{pl: pl, rt: rt, in: sim.NewServer(pl.Eng), out: sim.NewServer(pl.Eng)}
		rt.T = nd
		pl.nodes = append(pl.nodes, nd)
		pl.Runtimes = append(pl.Runtimes, rt)
	}
	return pl
}

// Run executes program SPMD and returns the finishing virtual time; a rank
// whose program has returned waits as quiesce says.
func (pl *GAMPlatform) Run(program func(p *sim.Proc, rt *RT)) sim.Time {
	pl.running = len(pl.Runtimes)
	for i, rt := range pl.Runtimes {
		pl.Eng.Go(fmt.Sprintf("n%d:splitc", i), func(p *sim.Proc) {
			program(p, rt)
			pl.finish(p, rt)
		})
	}
	pl.Eng.RunAll()
	return pl.Eng.Now()
}

// gnode is one node: a queue-drained transport with LogGP timing.
type gnode struct {
	pl  *GAMPlatform
	rt  *RT         // the runtime this node serves
	in  *sim.Server // ejection port
	out *sim.Server // injection port
	q   ring.Ring[message]
}

func (g *gnode) wireTime(bytes int) sim.Time {
	return sim.Time(float64(bytes+headerBytes) / g.pl.m.MBps / 1e6 * 1e9)
}

// send copies m's data, charges the sender overhead and routes m through
// the two ports and the latency to dst's queue.
func (g *gnode) send(p *sim.Proc, dst int, m message) {
	m.src, m.data = g.rt.id, append([]byte(nil), m.data...)
	g.pl.inFlight++
	p.Advance(g.pl.m.OSend)
	t := g.wireTime(len(m.data))
	d := g.pl.nodes[dst]
	lat := g.pl.m.Latency
	eng := g.pl.Eng
	g.out.Submit(t, func() {
		eng.After(lat, func() {
			d.in.Submit(t, func() {
				d.q.Push(m)
			})
		})
	})
}

func (g *gnode) Ctl(p *sim.Proc, dst int, a, b uint64) {
	g.send(p, dst, message{kind: msgCtl, a: a, b: b})
}

func (g *gnode) Get(p *sim.Proc, dst, roff, loff, n int) {
	g.send(p, dst, message{kind: msgGet, off: roff, loff: loff, n: n})
}

func (g *gnode) Store(p *sim.Proc, dst, roff int, data []byte) {
	g.send(p, dst, message{kind: msgStore, off: roff, n: len(data), data: data})
}

// PollWait sits out a run of idle polls inline: an empty poll is one
// 0.5 µs Advance and only a delivery fills q, so stepping while q stays
// empty matches the plain Poll loop event for event.
func (g *gnode) PollWait(p *sim.Proc) {
	if g.q.Len() == 0 {
		p.AdvanceWhile(idlePoll, func() bool { return g.q.Len() == 0 })
	}
	g.Poll(p)
}

// Poll drains the delivery queue, charging the per-message receive
// overhead and serving each message.
func (g *gnode) Poll(p *sim.Proc) {
	if g.q.Len() == 0 {
		p.Advance(idlePoll)
		return
	}
	for g.q.Len() > 0 {
		m := g.q.Pop()
		g.pl.inFlight--
		p.Advance(g.pl.m.ORecv)
		if reply := g.rt.serve(m); reply.kind != 0 {
			g.send(p, m.src, reply)
		}
	}
}
