package splitc

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// spamTransport runs Split-C over SP Active Messages — the configuration
// the paper advocates. Gets map directly onto am_get; the one-way store maps
// onto am_store_async with a receiver-side byte-counting handler; control
// messages are am_request_4's.
type spamTransport struct {
	ep     *am.Endpoint
	mem    []byte
	ctlFn  func(p *sim.Proc, src int, a, b uint64)
	stored int64
	err    error // first peer-death error; sticky

	cbs Callbacks // gets in flight; the index is the AM handler argument word

	h *spamHandlers
}

// spamHandlers are the AM handler ids shared by all endpoints of a system.
type spamHandlers struct {
	ctl      am.HandlerID
	getDone  am.HandlerID
	storeCnt am.HandlerID
}

// SPAMPlatform is an SP running Split-C over SP AM (or, with a different
// cluster config, wide nodes).
type SPAMPlatform struct {
	Cluster *hw.Cluster
	Sys     *am.System
	rts     []*RT
	name    string
}

// NewSPAM builds an n-node thin-node SP with SP AM and a heapBytes global
// segment per node.
func NewSPAM(n, heapBytes int) *SPAMPlatform {
	c := hw.NewCluster(hw.DefaultConfig(n))
	return newSPAM(c, heapBytes, "IBM SP AM")
}

func newSPAM(c *hw.Cluster, heapBytes int, name string) *SPAMPlatform {
	sys := am.New(c)
	pl := &SPAMPlatform{Cluster: c, Sys: sys, name: name}
	h := &spamHandlers{}
	h.ctl = sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		t := ep.Data.(*spamTransport)
		a := uint64(args[0])<<32 | uint64(args[1])
		b := uint64(args[2])<<32 | uint64(args[3])
		t.ctlFn(p, tok.Src, a, b)
	})
	h.getDone = sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*spamTransport).cbs.Fire(arg)
	})
	h.storeCnt = sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*spamTransport).stored += int64(n)
	})
	for i, nd := range c.Nodes {
		mem := make([]byte, heapBytes)
		nd.Mem.Add(mem) // segment 0: the Split-C global heap
		t := &spamTransport{ep: sys.EPs[i], mem: mem, h: h}
		t.ep.SetErrorHandler(func(p *sim.Proc, e *am.Endpoint, peer int, derr *am.PeerDeathError) {
			if t.err == nil {
				t.err = derr
			}
		})
		sys.EPs[i].Data = t
		pl.rts = append(pl.rts, NewRT(t))
	}
	return pl
}

// N reports the processor count.
func (pl *SPAMPlatform) N() int { return len(pl.rts) }

// Name identifies the platform in result tables.
func (pl *SPAMPlatform) Name() string { return pl.name }

// Run executes program SPMD and returns the finishing virtual time. After
// the program body, every process drains the AM system before exiting:
// retransmission lives in Poll, so a process that stopped polling would
// strand any of its packets a peer still needs resent under packet loss.
func (pl *SPAMPlatform) Run(program func(p *sim.Proc, rt *RT)) sim.Time {
	for i := range pl.rts {
		i, rt := i, pl.rts[i]
		pl.Cluster.Spawn(i, "splitc", func(p *sim.Proc, n *hw.Node) {
			program(p, rt)
			pl.Sys.EPs[i].Drain(p, 0)
		})
	}
	pl.Cluster.Run()
	return pl.Cluster.Eng.Now()
}

// RTs exposes the per-node runtimes (for instrumentation readout).
func (pl *SPAMPlatform) RTs() []*RT { return pl.rts }

func (t *spamTransport) ID() int            { return t.ep.ID() }
func (t *spamTransport) N() int             { return t.ep.N() }
func (t *spamTransport) LocalMem() []byte   { return t.mem }
func (t *spamTransport) StoredBytes() int64 { return t.stored }
func (t *spamTransport) Err() error         { return t.err }

func (t *spamTransport) SetCtlHandler(fn func(p *sim.Proc, src int, a, b uint64)) {
	t.ctlFn = fn
}

func (t *spamTransport) Poll(p *sim.Proc)     { t.ep.Poll(p) }
func (t *spamTransport) PollWait(p *sim.Proc) { t.ep.PollWait(p, 0) }

func (t *spamTransport) Compute(p *sim.Proc, d sim.Time) { t.ep.Node().Compute(p, d) }

func (t *spamTransport) Ctl(p *sim.Proc, dst int, a, b uint64) {
	t.ep.Request(p, dst, t.h.ctl,
		uint32(a>>32), uint32(a), uint32(b>>32), uint32(b))
}

func (t *spamTransport) Get(p *sim.Proc, dst, roff, loff, n int, onDone func()) {
	idx := t.cbs.Add(onDone)
	t.ep.GetAsync(p, dst, hw.Addr{Seg: 0, Off: roff}, hw.Addr{Seg: 0, Off: loff}, n,
		t.h.getDone, idx)
}

func (t *spamTransport) Store(p *sim.Proc, dst, roff int, data []byte) {
	// Split-C's store source is reusable as soon as the call returns, but
	// am_store_async pins the source until the final ack (its retransmit
	// copy) — so take a private copy here, as the real runtime's bounce
	// buffers do.
	buf := append([]byte(nil), data...)
	t.ep.StoreAsync(p, dst, hw.Addr{Seg: 0, Off: roff}, buf, t.h.storeCnt, 0, nil)
}
