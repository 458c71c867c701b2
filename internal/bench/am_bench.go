package bench

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// PingPong is the one SP AM request/reply ping-pong (paper §2.3): node 0
// am_request's node 1 with words argument words, node 1's handler
// am_reply's them back, and the next trip starts when the reply handler has
// run. After warmup untimed trips (the first packet sees a cold pipeline) it
// times iters trips and returns microseconds per trip. A Setup.Tracer holds
// the warm-up trips too; TracedPingPong cuts them.
func PingPong(s Setup, words, warmup, iters int) (rttUS float64, r Ran) {
	c, sys := s.am(2)
	var gotReply, done bool
	replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		gotReply = true
	})
	pingH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Reply(p, tok, replyH, args...)
	})
	doneH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		done = true
	})

	args := make([]uint32, words)
	c.Spawn(0, "pinger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		trip := func() {
			gotReply = false
			ep.Request(p, 1, pingH, args...)
			for !gotReply {
				ep.PollWait(p, 0)
			}
		}
		for i := 0; i < warmup; i++ {
			trip()
		}
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			trip()
		}
		rttUS = (p.Now() - t0).Microseconds() / float64(iters)
		ep.Request(p, 1, doneH)
	})
	c.Spawn(1, "ponger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.PollWait(p, 0)
		}
	})
	c.Run()
	return rttUS, ran(c, sys)
}

// RawRoundTrip measures the protocol-less ping-pong the paper uses as the
// latency floor (§2.3) on the paper's machine.
func RawRoundTrip(iters int) float64 { return rawRoundTrip(Setup{}, iters) }

func rawRoundTrip(s Setup, iters int) float64 {
	c, sys := s.am(2)
	var perRTT float64
	stop := false
	c.Spawn(0, "pinger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.RawSend(p, 1, 4)
		for ep.RawRecv() == nil {
			ep.PollWait(p, 0)
		}
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			ep.RawSend(p, 1, 4)
			for ep.RawRecv() == nil {
				ep.PollWait(p, 0)
			}
		}
		perRTT = (p.Now() - t0).Microseconds() / float64(iters)
		stop = true
		ep.RawSend(p, 1, 0) // release the ponger
	})
	c.Spawn(1, "ponger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !stop { // set by the pinger, not by a poll: plain Poll, not PollWait
			if ep.RawRecv() != nil {
				ep.RawSend(p, 0, 4)
			}
			ep.Poll(p)
		}
	})
	c.Run()
	return perRTT
}

// RequestCost measures the host time of one am_request_N call on an
// otherwise empty network (paper Table 2).
func RequestCost(s Setup, words int) float64 {
	c, sys := s.am(2)
	nop := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {})
	var cost float64
	c.Spawn(0, "caller", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		args := make([]uint32, words)
		t0 := p.Now()
		ep.Request(p, 1, nop, args...)
		cost = (p.Now() - t0).Microseconds()
	})
	c.Spawn(1, "sink", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for i := 0; i < 40; i++ {
			ep.Poll(p)
		}
	})
	c.Run()
	return cost
}

// ReplyCost measures the host time of one am_reply_N call, timed inside the
// request handler (paper Table 2).
func ReplyCost(s Setup, words int) float64 {
	c, sys := s.am(2)
	var cost float64
	nop := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {})
	echo := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		t0 := p.Now()
		ep.Reply(p, tok, nop, args...)
		cost = (p.Now() - t0).Microseconds()
	})
	done := false
	c.Spawn(0, "caller", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.Request(p, 1, echo, make([]uint32, words)...)
		for !done {
			ep.PollWait(p, 0)
			if ep.Stats.PacketsReceived > 0 {
				done = true
			}
		}
	})
	c.Spawn(1, "replier", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for cost == 0 {
			ep.PollWait(p, 0)
		}
	})
	c.Run()
	return cost
}

// BulkMode selects a Figure-3 bulk-transfer benchmark variant.
type BulkMode int

const (
	// SyncStore issues blocking am_store's of n bytes back to back.
	SyncStore BulkMode = iota
	// SyncGet issues blocking am_get's of n bytes back to back.
	SyncGet
	// AsyncStore pipelines am_store_async's of n bytes (the paper's
	// "pipelined asynchronous transfer": 1 MB moved in n-byte pieces).
	AsyncStore
	// AsyncGet pipelines am_get's without waiting for each.
	AsyncGet
)

func (m BulkMode) String() string {
	switch m {
	case SyncStore:
		return "sync store"
	case SyncGet:
		return "sync get"
	case AsyncStore:
		return "async store"
	case AsyncGet:
		return "async get"
	}
	return "?"
}

// Bandwidth is the one SP AM bulk mover (paper §2.4, Figure 3): node 0
// moves total bytes to or from node 1 in n-byte operations of the given
// mode and the rate is timed until the last operation's data has arrived
// and been acknowledged, so retransmission stalls under a Setup.Plan count
// against it. It returns delivered MB/s. Both nodes then drain, so Ran
// includes whatever recovery the tail of the transfer needed.
func Bandwidth(s Setup, mode BulkMode, n, total int) (mbps float64, r Ran) {
	if n > total {
		total = n
	}
	ops := total / n
	c, sys := s.am(2)
	// Destination (and get-source) region on node 1; local region on node 0.
	raddr := hw.Addr{Seg: c.Nodes[1].Mem.Add(make([]byte, n))}
	laddr := hw.Addr{Seg: c.Nodes[0].Mem.Add(make([]byte, n))}
	completed := 0
	gotH := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, nb int, arg uint32) {
		completed++
	})
	finished := false

	c.Spawn(0, "mover", func(p *sim.Proc, n0 *hw.Node) {
		ep := sys.EPs[0]
		src := make([]byte, n)
		t0 := p.Now()
		for i := 0; i < ops; i++ {
			switch mode {
			case SyncStore:
				ep.Store(p, 1, raddr, src, am.NoHandler, 0)
				completed++
			case SyncGet:
				ep.Get(p, 1, raddr, laddr, n, am.NoHandler)
				completed++
			case AsyncStore:
				ep.StoreAsync(p, 1, raddr, src, am.NoHandler, 0,
					func(q *sim.Proc, e *am.Endpoint) { completed++ })
			case AsyncGet:
				ep.GetAsync(p, 1, raddr, laddr, n, gotH)
			}
		}
		for completed < ops {
			ep.PollWait(p, 0)
		}
		mbps = float64(ops*n) / 1e6 / (p.Now() - t0).Seconds()
		finished = true
		ep.Drain(p, 0)
	})
	c.Spawn(1, "peer", func(p *sim.Proc, n1 *hw.Node) {
		ep := sys.EPs[1]
		for !finished { // set by the mover, not by a poll: plain Poll, not PollWait
			ep.Poll(p)
		}
		ep.Drain(p, 0)
	})
	c.Run()
	return mbps, ran(c, sys)
}

// AMBandwidth measures one-way delivered bandwidth moving total bytes in
// n-byte operations with the given mode, in MB/s, on the paper's machine.
func AMBandwidth(mode BulkMode, n, total int) float64 {
	mbps, _ := Bandwidth(Setup{}, mode, n, total)
	return mbps
}

// amStoreRingLatency measures the bare am_store per-hop time around a
// 4-node ring — the lower-bound series of Figures 8 and 10.
func amStoreRingLatency(s Setup, size int) float64 {
	const ringN = 4
	const laps = 5
	c, sys := s.am(ringN)
	counts := make([]int, ringN)
	h := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		counts[ep.ID()]++
	})
	segs := make([]int, ringN)
	for i, nd := range c.Nodes {
		segs[i] = nd.Mem.Add(make([]byte, size))
	}
	var perHop float64
	for i := 0; i < ringN; i++ {
		i := i
		c.Spawn(i, "amring", func(p *sim.Proc, nd *hw.Node) {
			ep := sys.EPs[i]
			next := (i + 1) % ringN
			data := make([]byte, size)
			forward := func() {
				ep.Store(p, next, hw.Addr{Seg: segs[next]}, data, h, 0)
			}
			waitFor := func(k int) {
				for counts[i] < k {
					ep.PollWait(p, 0)
				}
			}
			if i == 0 {
				forward() // warm-up lap
				waitFor(1)
				t0 := p.Now()
				for l := 0; l < laps; l++ {
					forward()
					waitFor(l + 2)
				}
				perHop = (p.Now() - t0).Microseconds() / float64(laps*ringN)
			} else {
				for l := 0; l < laps+1; l++ {
					waitFor(l + 1)
					forward()
				}
			}
		})
	}
	c.Run()
	return perHop
}

// AMBandwidthCurve sweeps message sizes and returns the Figure-3 curve for
// one mode; total is the bytes moved per measurement (the paper uses 1 MB).
func AMBandwidthCurve(s Setup, mode BulkMode, sizes []int, total int) Curve {
	return Curve{Name: "AM " + mode.String(), Points: Sweep(s, len(sizes), func(s Setup, i int) Point {
		mbps, _ := Bandwidth(s, mode, sizes[i], total)
		return Point{N: sizes[i], MBps: mbps}
	})}
}
