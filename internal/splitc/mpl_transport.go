package splitc

import (
	"encoding/binary"

	"spam/internal/hw"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// mplTransport runs Split-C over IBM MPL, reproducing the paper's MPL port
// of Split-C (Section 3). MPL has no remote handlers, so every runtime
// operation becomes an explicit message serviced when the peer polls: gets
// need a request/response pair, and every message pays MPL's per-call
// software overhead — which is
// precisely why the paper's fine-grained benchmarks degrade over MPL.
type mplTransport struct {
	ep      *mpl.Endpoint
	rt      *RT
	scratch []byte
	q       *quiesce // the platform's end-of-run state
}

// MPLPlatform is an SP running Split-C over MPL.
type MPLPlatform struct {
	Runtimes
	Cluster *hw.Cluster
	quiesce
}

// NewMPL builds an n-node thin-node SP with the MPL-based Split-C runtime.
func NewMPL(n, heapBytes int) *MPLPlatform {
	c := hw.NewCluster(hw.DefaultConfig(n))
	sys := mpl.New(c)
	pl := &MPLPlatform{Cluster: c}
	for i, nd := range c.Nodes {
		rt := newRT(i, n, heapBytes, nd.P.CPUScale)
		rt.T = &mplTransport{ep: sys.EPs[i], rt: rt, scratch: make([]byte, heapBytes+32), q: &pl.quiesce}
		pl.Runtimes = append(pl.Runtimes, rt)
	}
	return pl
}

// Run executes program SPMD and returns the finishing virtual time; a rank
// whose program has returned waits as quiesce says.
func (pl *MPLPlatform) Run(program func(p *sim.Proc, rt *RT)) sim.Time {
	pl.running = len(pl.Runtimes)
	for i, rt := range pl.Runtimes {
		pl.Cluster.Spawn(i, "splitc-mpl", func(p *sim.Proc, n *hw.Node) {
			program(p, rt)
			pl.finish(p, rt)
		})
	}
	pl.Cluster.Run()
	return pl.Cluster.Eng.Now()
}

// send sends m as an MPL message of tag m.kind: a 24-byte header of three
// little-endian words (the control words, or off, loff and n), then the
// data. MPL copies a payload once out of the sender's memory and once into
// the receiver's; this is the first copy.
func (t *mplTransport) send(p *sim.Proc, dst int, m message) {
	w0, w1 := uint64(m.off), uint64(m.loff)
	if m.kind == msgCtl {
		w0, w1 = m.a, m.b
	}
	msg := make([]byte, 24+len(m.data))
	binary.LittleEndian.PutUint64(msg[0:], w0)
	binary.LittleEndian.PutUint64(msg[8:], w1)
	binary.LittleEndian.PutUint64(msg[16:], uint64(m.n))
	copy(msg[24:], m.data)
	if m.kind == msgReply || m.kind == msgStore {
		t.ep.Node().Memcpy(p, m.n)
	}
	t.q.inFlight++
	t.ep.Send(p, dst, m.kind, msg)
}

func (t *mplTransport) Ctl(p *sim.Proc, dst int, a, b uint64) {
	t.send(p, dst, message{kind: msgCtl, a: a, b: b})
}

func (t *mplTransport) Get(p *sim.Proc, dst, roff, loff, n int) {
	t.send(p, dst, message{kind: msgGet, off: roff, loff: loff, n: n})
}

func (t *mplTransport) Store(p *sim.Proc, dst, roff int, data []byte) {
	t.send(p, dst, message{kind: msgStore, off: roff, n: len(data), data: data})
}

func (t *mplTransport) PollWait(p *sim.Proc) { t.Poll(p) }

// Poll serves every message currently deliverable, charging the second
// copy of each payload.
func (t *mplTransport) Poll(p *sim.Proc) {
	for t.ep.Poll(p); ; t.ep.Poll(p) {
		_, src, tag, ok := t.ep.TryRecv(p, mpl.AnySource, mpl.AnyTag, t.scratch)
		if !ok {
			return
		}
		t.q.inFlight--
		w0 := binary.LittleEndian.Uint64(t.scratch[0:])
		w1 := binary.LittleEndian.Uint64(t.scratch[8:])
		n := int(binary.LittleEndian.Uint64(t.scratch[16:]))
		m := message{kind: tag, src: src, a: w0, b: w1, off: int(w0), loff: int(w1), n: n}
		if tag == msgReply || tag == msgStore {
			m.data = t.scratch[24 : 24+n]
		}
		if reply := t.rt.serve(m); reply.kind != 0 {
			t.send(p, src, reply)
		} else if m.data != nil {
			t.ep.Node().Memcpy(p, n)
		}
	}
}
