package splitc

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// spamTransport runs Split-C over SP Active Messages — the configuration
// the paper advocates. Gets map directly onto am_get; the one-way store maps
// onto am_store_async with a receiver-side byte-counting handler; control
// messages are am_request_4's. Each endpoint's Data is the RT it serves.
type spamTransport struct {
	ep *am.Endpoint
	h  *spamHandlers
}

// spamHandlers are the AM handler ids shared by all endpoints of a system.
type spamHandlers struct {
	ctl      am.HandlerID
	getDone  am.HandlerID
	storeCnt am.HandlerID
}

// SPAMPlatform is an SP running Split-C over SP AM.
type SPAMPlatform struct {
	Runtimes
	Cluster *hw.Cluster
	Sys     *am.System
}

// NewSPAM builds an n-node thin-node SP with SP AM and a heapBytes global
// segment per node.
func NewSPAM(n, heapBytes int) *SPAMPlatform {
	c := hw.NewCluster(hw.DefaultConfig(n))
	sys := am.New(c)
	pl := &SPAMPlatform{Cluster: c, Sys: sys}
	h := &spamHandlers{}
	h.ctl = sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*RT).control(uint64(args[0])<<32|uint64(args[1]), uint64(args[2])<<32|uint64(args[3]))
	})
	h.getDone = sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*RT).outstanding--
	})
	h.storeCnt = sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*RT).landed += int64(n)
	})
	for i, nd := range c.Nodes {
		rt := newRT(i, n, heapBytes, nd.P.CPUScale)
		nd.Mem.Add(rt.mem) // segment 0: the Split-C global heap
		t := &spamTransport{ep: sys.EPs[i], h: h}
		t.ep.SetErrorHandler(func(p *sim.Proc, e *am.Endpoint, peer int, derr *am.PeerDeathError) {
			if rt.Err == nil {
				rt.Err, rt.dead = derr, peer
			}
		})
		t.ep.Data = rt
		rt.T = t
		pl.Runtimes = append(pl.Runtimes, rt)
	}
	return pl
}

// Run executes program SPMD and returns the finishing virtual time. After
// the program body, every process drains the AM system before exiting:
// retransmission lives in Poll, so a process that stopped polling would
// strand any of its packets a peer still needs resent under packet loss.
func (pl *SPAMPlatform) Run(program func(p *sim.Proc, rt *RT)) sim.Time {
	for i, rt := range pl.Runtimes {
		pl.Cluster.Spawn(i, "splitc", func(p *sim.Proc, n *hw.Node) {
			program(p, rt)
			pl.Sys.EPs[i].Drain(p, 0)
		})
	}
	pl.Cluster.Run()
	return pl.Cluster.Eng.Now()
}

func (t *spamTransport) Poll(p *sim.Proc)     { t.ep.Poll(p) }
func (t *spamTransport) PollWait(p *sim.Proc) { t.ep.PollWait(p, 0) }

func (t *spamTransport) Ctl(p *sim.Proc, dst int, a, b uint64) {
	t.ep.Request(p, dst, t.h.ctl,
		uint32(a>>32), uint32(a), uint32(b>>32), uint32(b))
}

func (t *spamTransport) Get(p *sim.Proc, dst, roff, loff, n int) {
	t.ep.GetAsync(p, dst, hw.Addr{Seg: 0, Off: roff}, hw.Addr{Seg: 0, Off: loff}, n, t.h.getDone)
}

func (t *spamTransport) Store(p *sim.Proc, dst, roff int, data []byte) {
	// Split-C's store source is reusable as soon as the call returns, but
	// am_store_async pins the source until the final ack (its retransmit
	// copy) — so take a private copy here, as the real runtime's bounce
	// buffers do.
	buf := append([]byte(nil), data...)
	t.ep.StoreAsync(p, dst, hw.Addr{Seg: 0, Off: roff}, buf, t.h.storeCnt, 0, nil)
}
