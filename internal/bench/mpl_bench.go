package bench

import (
	"spam/internal/hw"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// MPLRoundTrip measures MPL's one-word ping-pong round trip (mpc_bsend /
// mpc_brecv), the paper's 88 µs baseline (§2.3).
func MPLRoundTrip(s Setup, iters int) float64 {
	c := s.cluster(2)
	sys := mpl.New(c)
	s.observe(c, nil)
	word := make([]byte, 4)
	var perRTT float64
	c.Spawn(0, "pinger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		buf := make([]byte, 4)
		ep.BSend(p, 1, 1, word)
		ep.Recv(p, 1, 1, buf)
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			ep.BSend(p, 1, 1, word)
			ep.Recv(p, 1, 1, buf)
		}
		perRTT = (p.Now() - t0).Microseconds() / float64(iters)
	})
	c.Spawn(1, "ponger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		buf := make([]byte, 4)
		for i := 0; i < iters+1; i++ {
			ep.Recv(p, 0, 1, buf)
			ep.BSend(p, 0, 1, word)
		}
	})
	c.Run()
	return perRTT
}

// MPLBandwidth measures MPL one-way bandwidth moving total bytes in n-byte
// messages. Blocking mode follows the paper's method: each mpc_bsend is
// followed by a 0-byte mpc_brecv reply; pipelined mode streams mpc_send's.
func MPLBandwidth(s Setup, blocking bool, n, total int) float64 {
	if n > total {
		total = n
	}
	ops := total / n
	c := s.cluster(2)
	sys := mpl.New(c)
	s.observe(c, nil)
	var mbps float64
	c.Spawn(0, "tx", func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[0]
		data := make([]byte, n)
		ack := make([]byte, 0)
		t0 := p.Now()
		if blocking {
			for i := 0; i < ops; i++ {
				ep.BSend(p, 1, 2, data)
				ep.Recv(p, 1, 3, ack)
			}
		} else {
			for i := 0; i < ops; i++ {
				ep.Send(p, 1, 2, data)
			}
			ep.DrainSends(p)
			// Wait for the receiver's completion reply so the measurement
			// covers delivery, as in the paper's one-way tests.
			ep.Recv(p, 1, 3, ack)
		}
		elapsed := (p.Now() - t0).Seconds()
		mbps = float64(ops*n) / 1e6 / elapsed
	})
	c.Spawn(1, "rx", func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[1]
		buf := make([]byte, n)
		zero := make([]byte, 0)
		if blocking {
			for i := 0; i < ops; i++ {
				ep.Recv(p, 0, 2, buf)
				ep.BSend(p, 0, 3, zero)
			}
		} else {
			for i := 0; i < ops; i++ {
				ep.Recv(p, 0, 2, buf)
			}
			ep.BSend(p, 0, 3, zero)
		}
	})
	c.Run()
	return mbps
}

// MPLBandwidthCurve sweeps message sizes for Figure 3's MPL curves.
func MPLBandwidthCurve(s Setup, blocking bool, sizes []int, total int) Curve {
	name := "MPL pipelined send"
	if blocking {
		name = "MPL send/reply"
	}
	return Curve{Name: name, Points: Sweep(s, len(sizes), func(s Setup, i int) Point {
		return Point{N: sizes[i], MBps: MPLBandwidth(s, blocking, sizes[i], total)}
	})}
}
