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
	ep     *mpl.Endpoint
	mem    []byte
	ctlFn  func(p *sim.Proc, src int, a, b uint64)
	stored int64

	cbs Callbacks // gets in flight; the index is a header field

	scratch []byte
}

// Message tags of the Split-C/MPL wire protocol.
const (
	tagCtl = iota + 100
	tagGetReq
	tagGetData
	tagStore
)

// MPLPlatform is an SP running Split-C over MPL.
type MPLPlatform struct {
	Cluster *hw.Cluster
	rts     []*RT
}

// NewMPL builds an n-node thin-node SP with the MPL-based Split-C runtime.
func NewMPL(n, heapBytes int) *MPLPlatform {
	c := hw.NewCluster(hw.DefaultConfig(n))
	sys := mpl.New(c)
	pl := &MPLPlatform{Cluster: c}
	for i := range c.Nodes {
		t := &mplTransport{
			ep:      sys.EPs[i],
			mem:     make([]byte, heapBytes),
			scratch: make([]byte, heapBytes+32),
		}
		pl.rts = append(pl.rts, NewRT(t))
	}
	return pl
}

// N reports the processor count.
func (pl *MPLPlatform) N() int { return len(pl.rts) }

// Name identifies the platform in result tables.
func (pl *MPLPlatform) Name() string { return "IBM SP MPL" }

// Run executes program SPMD and returns the finishing virtual time.
func (pl *MPLPlatform) Run(program func(p *sim.Proc, rt *RT)) sim.Time {
	for i := range pl.rts {
		rt := pl.rts[i]
		pl.Cluster.Spawn(i, "splitc-mpl", func(p *sim.Proc, n *hw.Node) { program(p, rt) })
	}
	pl.Cluster.Run()
	return pl.Cluster.Eng.Now()
}

// RTs exposes the per-node runtimes.
func (pl *MPLPlatform) RTs() []*RT { return pl.rts }

func (t *mplTransport) ID() int            { return t.ep.ID() }
func (t *mplTransport) N() int             { return t.ep.N() }
func (t *mplTransport) LocalMem() []byte   { return t.mem }
func (t *mplTransport) StoredBytes() int64 { return t.stored }
func (t *mplTransport) Err() error         { return nil } // MPL has no fail-stop detection

func (t *mplTransport) SetCtlHandler(fn func(p *sim.Proc, src int, a, b uint64)) {
	t.ctlFn = fn
}

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

func (t *mplTransport) Ctl(p *sim.Proc, dst int, a, b uint64) {
	t.ep.Send(p, dst, tagCtl, header(a, b, 0))
}

func (t *mplTransport) Get(p *sim.Proc, dst, roff, loff, n int, onDone func()) {
	idx := t.cbs.Add(onDone)
	// The response deposits at loff; stash it alongside the callback.
	t.ep.Send(p, dst, tagGetReq, header(uint64(roff), uint64(idx)<<32|uint64(loff), uint64(n)))
}

func (t *mplTransport) Store(p *sim.Proc, dst, roff int, data []byte) {
	msg := make([]byte, 24+len(data))
	copy(msg, header(uint64(roff), 0, uint64(len(data))))
	copy(msg[24:], data)
	t.ep.Node().Memcpy(p, len(data))
	t.ep.Send(p, dst, tagStore, msg)
}

func (t *mplTransport) PollWait(p *sim.Proc) { t.Poll(p) }

// Poll services every message currently deliverable, dispatching the
// Split-C/MPL protocol.
func (t *mplTransport) Poll(p *sim.Proc) {
	ep := t.ep
	for {
		if !ep.Probe(p, mpl.AnyTag) {
			return
		}
		_, src, tag := ep.Recv(p, mpl.AnySource, mpl.AnyTag, t.scratch)
		h0 := binary.LittleEndian.Uint64(t.scratch[0:])
		h1 := binary.LittleEndian.Uint64(t.scratch[8:])
		h2 := binary.LittleEndian.Uint64(t.scratch[16:])
		switch tag {
		case tagCtl:
			t.ctlFn(p, src, h0, h1)
		case tagGetReq:
			roff, ln := int(h0), int(h2)
			msg := make([]byte, 24+ln)
			copy(msg, header(h1, 0, uint64(ln)))
			copy(msg[24:], t.mem[roff:roff+ln])
			t.ep.Node().Memcpy(p, ln)
			t.ep.Send(p, src, tagGetData, msg)
		case tagGetData:
			idx, loff := uint32(h0>>32), int(h0&0xffffffff)
			ln := int(h2)
			copy(t.mem[loff:], t.scratch[24:24+ln])
			t.ep.Node().Memcpy(p, ln)
			t.cbs.Fire(idx)
		case tagStore:
			roff, ln := int(h0), int(h2)
			copy(t.mem[roff:], t.scratch[24:24+ln])
			t.ep.Node().Memcpy(p, ln)
			t.stored += int64(ln)
		}
	}
}
