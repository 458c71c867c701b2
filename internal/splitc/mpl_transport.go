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
	ep       *mpl.Endpoint
	rt       *RT
	scratch  []byte
	inFlight *int // the platform's count of messages sent and not yet taken
}

// Message tags of the Split-C/MPL wire protocol.
const (
	tagCtl = iota + 100
	tagGetReq
	tagGetReply
	tagStore
)

// MPLPlatform is an SP running Split-C over MPL.
type MPLPlatform struct {
	Runtimes
	Cluster  *hw.Cluster
	inFlight int
}

// NewMPL builds an n-node thin-node SP with the MPL-based Split-C runtime.
func NewMPL(n, heapBytes int) *MPLPlatform {
	c := hw.NewCluster(hw.DefaultConfig(n))
	sys := mpl.New(c)
	pl := &MPLPlatform{Cluster: c}
	for i := range c.Nodes {
		rt := NewRT(i, n, make([]byte, heapBytes))
		rt.T = &mplTransport{ep: sys.EPs[i], rt: rt, scratch: make([]byte, heapBytes+32), inFlight: &pl.inFlight}
		pl.Runtimes = append(pl.Runtimes, rt)
	}
	return pl
}

// Run executes program SPMD and returns the finishing virtual time. A
// process whose program has returned keeps polling until every program has
// returned and every message sent has been taken: MPL holds a send until
// its receiver, polling, returns a credit, and a message injected lands
// only when its receiver polls. The wait is on other processes, so it is
// plain Poll, not PollWait.
func (pl *MPLPlatform) Run(program func(p *sim.Proc, rt *RT)) sim.Time {
	running := len(pl.Runtimes)
	for i, rt := range pl.Runtimes {
		pl.Cluster.Spawn(i, "splitc-mpl", func(p *sim.Proc, n *hw.Node) {
			program(p, rt)
			running--
			for running > 0 || pl.inFlight > 0 {
				rt.T.Poll(p)
			}
		})
	}
	pl.Cluster.Run()
	return pl.Cluster.Eng.Now()
}

func (t *mplTransport) Err() error { return nil } // MPL has no fail-stop detection

func (t *mplTransport) Compute(p *sim.Proc, d sim.Time) {
	t.ep.Node().Compute(p, d)
}

// header builds the fixed 24-byte wire header: three little-endian uint64s.
func header(a, b, c uint64) []byte {
	h := make([]byte, 24)
	binary.LittleEndian.PutUint64(h[0:], a)
	binary.LittleEndian.PutUint64(h[8:], b)
	binary.LittleEndian.PutUint64(h[16:], c)
	return h
}

// send sends one Split-C message and counts it in flight until its
// receiver's Poll takes it.
func (t *mplTransport) send(p *sim.Proc, dst, tag int, msg []byte) {
	*t.inFlight++
	t.ep.Send(p, dst, tag, msg)
}

func (t *mplTransport) Ctl(p *sim.Proc, dst int, a, b uint64) {
	t.send(p, dst, tagCtl, header(a, b, 0))
}

func (t *mplTransport) Get(p *sim.Proc, dst, roff, loff, n int) {
	// The response deposits at loff, which rides in the request.
	t.send(p, dst, tagGetReq, header(uint64(roff), uint64(loff), uint64(n)))
}

func (t *mplTransport) Store(p *sim.Proc, dst, roff int, data []byte) {
	msg := make([]byte, 24+len(data))
	copy(msg, header(uint64(roff), 0, uint64(len(data))))
	copy(msg[24:], data)
	t.ep.Node().Memcpy(p, len(data))
	t.send(p, dst, tagStore, msg)
}

func (t *mplTransport) PollWait(p *sim.Proc) { t.Poll(p) }

// Poll services every message currently deliverable, dispatching the
// Split-C/MPL protocol.
func (t *mplTransport) Poll(p *sim.Proc) {
	for t.ep.Poll(p); ; t.ep.Poll(p) {
		_, src, tag, ok := t.ep.TryRecv(p, mpl.AnySource, mpl.AnyTag, t.scratch)
		if !ok {
			return
		}
		*t.inFlight--
		h0 := binary.LittleEndian.Uint64(t.scratch[0:])
		h1 := binary.LittleEndian.Uint64(t.scratch[8:])
		h2 := binary.LittleEndian.Uint64(t.scratch[16:])
		switch tag {
		case tagCtl:
			t.rt.Control(h0, h1)
		case tagGetReq:
			roff, ln := int(h0), int(h2)
			msg := make([]byte, 24+ln)
			copy(msg, header(h1, 0, uint64(ln)))
			copy(msg[24:], t.rt.mem[roff:roff+ln])
			t.ep.Node().Memcpy(p, ln)
			t.send(p, src, tagGetReply, msg)
		case tagGetReply:
			loff, ln := int(h0), int(h2)
			copy(t.rt.mem[loff:], t.scratch[24:24+ln])
			t.ep.Node().Memcpy(p, ln)
			t.rt.GetDone()
		case tagStore:
			roff, ln := int(h0), int(h2)
			copy(t.rt.mem[roff:], t.scratch[24:24+ln])
			t.ep.Node().Memcpy(p, ln)
			t.rt.Landed(ln)
		}
	}
}
