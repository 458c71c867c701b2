package bench

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/trace"
)

// TracedPingPong runs the Table-3 AM ping-pong with a trace recorder
// attached, returning the recorder (reset after warm-up, so it holds only
// steady-state iterations) and the measured round trip in microseconds.
// The recorder captures iters+1 request windows so DecomposeRoundTrip sees
// exactly iters complete iterations; pick iters a multiple of 16 so the
// lazy-pop MicroChannel amortization (one access per 16 pops) averages out
// exactly.
func TracedPingPong(words, warmup, iters int) (*trace.Recorder, float64) {
	rec := trace.New()
	cfg := hw.DefaultConfig(2)
	cfg.Tracer = rec
	c := hw.NewCluster(cfg)
	sys := am.New(c)
	var gotReply, done bool
	replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		gotReply = true
	})
	var pingH am.HandlerID
	pingH = sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Reply(p, tok, replyH, args...)
	})
	doneH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		done = true
	})

	args := make([]uint32, words)
	var perRTT float64
	c.Spawn(0, "pinger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < warmup; i++ {
			gotReply = false
			ep.Request(p, 1, pingH, args...)
			for !gotReply {
				ep.PollWait(p, 0)
			}
		}
		rec.Reset() // keep only steady-state iterations
		t0 := p.Now()
		for i := 0; i < iters+1; i++ {
			gotReply = false
			ep.Request(p, 1, pingH, args...)
			for !gotReply {
				ep.PollWait(p, 0)
			}
		}
		perRTT = (p.Now() - t0).Microseconds() / float64(iters+1)
		ep.Request(p, 1, doneH)
	})
	c.Spawn(1, "ponger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.PollWait(p, 0)
		}
	})
	c.Run()
	return rec, perRTT
}

// PingPongBreakdown runs a traced steady-state ping-pong and decomposes it.
// The returned breakdown's stage means sum to the measured round trip.
func PingPongBreakdown(words, iters int) (*trace.Breakdown, error) {
	rec, _ := TracedPingPong(words, 8, iters)
	return trace.DecomposeRoundTrip(rec.Sorted(), 0, 1)
}

// TracedBandwidth runs one Figure-3 bandwidth measurement with tracing
// enabled, returning the recorder and the measured rate — the event stream
// under load feeds the queueing-delay attribution.
func TracedBandwidth(mode BulkMode, n, total int) (*trace.Recorder, float64) {
	rec := trace.New()
	hw.DefaultTracer = rec
	defer func() { hw.DefaultTracer = nil }()
	mbps := AMBandwidth(mode, n, total)
	return rec, mbps
}
