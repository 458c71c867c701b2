// Package gam provides Generic-Active-Messages machines parameterized by
// the paper's Table 4: per-message overhead, round-trip latency, network
// bandwidth, and CPU speed. The paper compares Split-C on the SP against
// the TMC CM-5, the Meiko CS-2, and the U-Net ATM cluster; those machines'
// communication layers are not rebuilt gate-by-gate — their four published
// parameters are what the comparison uses, so a calibrated LogGP-style
// model implements the Split-C transport the SP models implement.
package gam

import (
	"fmt"

	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
	"spam/internal/splitc"
)

// Params describes one Table-4 machine.
type Params struct {
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
func CM5() Params {
	return Params{Name: "TMC CM-5", OSend: hw.US(1.6), ORecv: hw.US(1.4),
		Latency: hw.US(1.4), MBps: 10, CPUScale: 4.3}
}

// CS2 returns the Meiko CS-2: higher overhead, good bandwidth.
func CS2() Params {
	return Params{Name: "Meiko CS-2", OSend: hw.US(5.6), ORecv: hw.US(5.4),
		Latency: hw.US(0.8), MBps: 39, CPUScale: 2.6}
}

// UNetATM returns the U-Net ATM cluster of Sparc-20s: low overhead but high
// network latency and modest bandwidth.
func UNetATM() Params {
	return Params{Name: "U-Net ATM", OSend: hw.US(1.6), ORecv: hw.US(1.4),
		Latency: hw.US(27.4), MBps: 14, CPUScale: 1.9}
}

// Table4 returns the three machines of Table 4, in the paper's order.
func Table4() []Params { return []Params{CM5(), CS2(), UNetATM()} }

// headerBytes is the modeled per-message wire header.
const headerBytes = 8

// idlePoll is what an empty poll costs: something, on every machine.
const idlePoll = 500 * hw.Nanosecond

// mKind enumerates transport messages.
type mKind uint8

const (
	mCtl mKind = iota
	mGetReq
	mGetReply
	mStore
)

type message struct {
	kind       mKind
	src        int
	a, b       uint64
	roff, loff int
	n          int
	data       []byte
}

// Machine is a cluster of Table-4 nodes sharing one simulation engine.
type Machine struct {
	splitc.Runtimes
	Eng      *sim.Engine
	P        Params
	nodes    []*gnode
	inFlight int // messages sent and not yet taken off a delivery queue
}

// New builds an n-node machine with heapBytes of Split-C global segment
// per node.
func New(p Params, n, heapBytes int) *Machine {
	m := &Machine{Eng: sim.NewEngine(7), P: p}
	for i := 0; i < n; i++ {
		rt := splitc.NewRT(i, n, make([]byte, heapBytes))
		nd := &gnode{m: m, rt: rt, in: sim.NewServer(m.Eng), out: sim.NewServer(m.Eng)}
		rt.T = nd
		m.nodes = append(m.nodes, nd)
		m.Runtimes = append(m.Runtimes, rt)
	}
	return m
}

// Run executes program SPMD and returns the finishing virtual time. A
// process whose program has returned keeps polling until every program has
// returned and every message sent has been taken, as on the SP: a message
// lands only when its receiver polls. The wait is on other processes, so it
// is plain Poll, not PollWait.
func (m *Machine) Run(program func(p *sim.Proc, rt *splitc.RT)) sim.Time {
	running := len(m.Runtimes)
	for i, rt := range m.Runtimes {
		m.Eng.Go(fmt.Sprintf("n%d:splitc", i), func(p *sim.Proc) {
			program(p, rt)
			running--
			for running > 0 || m.inFlight > 0 {
				rt.T.Poll(p)
			}
		})
	}
	m.Eng.RunAll()
	return m.Eng.Now()
}

// gnode is one node: a queue-drained transport with LogGP timing.
type gnode struct {
	m   *Machine
	rt  *splitc.RT  // the runtime this node serves
	in  *sim.Server // ejection port
	out *sim.Server // injection port
	q   ring.Ring[*message]
}

func (g *gnode) Err() error { return nil } // LogGP model: no fault injection

func (g *gnode) Compute(p *sim.Proc, d sim.Time) {
	p.Advance(sim.Time(float64(d) * g.m.P.CPUScale))
}

func (g *gnode) wireTime(bytes int) sim.Time {
	return sim.Time(float64(bytes+headerBytes) / g.m.P.MBps / 1e6 * 1e9)
}

// send charges the sender overhead and routes msg through the two ports
// and the latency to dst's queue.
func (g *gnode) send(p *sim.Proc, dst int, msg *message) {
	msg.src = g.rt.ID()
	g.m.inFlight++
	p.Advance(g.m.P.OSend)
	t := g.wireTime(len(msg.data))
	d := g.m.nodes[dst]
	lat := g.m.P.Latency
	eng := g.m.Eng
	g.out.Submit(t, func() {
		eng.After(lat, func() {
			d.in.Submit(t, func() {
				d.q.Push(msg)
			})
		})
	})
}

func (g *gnode) Ctl(p *sim.Proc, dst int, a, b uint64) {
	g.send(p, dst, &message{kind: mCtl, a: a, b: b})
}

func (g *gnode) Get(p *sim.Proc, dst, roff, loff, n int) {
	g.send(p, dst, &message{kind: mGetReq, roff: roff, loff: loff, n: n})
}

func (g *gnode) Store(p *sim.Proc, dst, roff int, data []byte) {
	buf := append([]byte(nil), data...)
	g.send(p, dst, &message{kind: mStore, roff: roff, n: len(buf), data: buf})
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
// overhead and dispatching the runtime protocol.
func (g *gnode) Poll(p *sim.Proc) {
	if g.q.Len() == 0 {
		p.Advance(idlePoll)
		return
	}
	for g.q.Len() > 0 {
		msg := g.q.Pop()
		g.m.inFlight--
		p.Advance(g.m.P.ORecv)
		switch msg.kind {
		case mCtl:
			g.rt.Control(msg.a, msg.b)
		case mGetReq:
			buf := append([]byte(nil), g.rt.Mem()[msg.roff:msg.roff+msg.n]...)
			g.send(p, msg.src, &message{kind: mGetReply, loff: msg.loff, n: msg.n, data: buf})
		case mGetReply:
			copy(g.rt.Mem()[msg.loff:], msg.data)
			g.rt.GetDone()
		case mStore:
			copy(g.rt.Mem()[msg.roff:], msg.data)
			g.rt.Landed(msg.n)
		}
	}
}
