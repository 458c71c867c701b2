package am

import "spam/internal/sim"

// localQuiescent reports whether this endpoint has no protocol work of its
// own in flight: every packet it injected is acknowledged, none of its
// operations are queued or awaiting retransmission, no bulk op is pending,
// and no staged FIFO entries await commit. It reads only the endpoint's own
// state.
func (ep *Endpoint) localQuiescent() bool {
	if len(ep.ops) != 0 || ep.node.Adapter.Staged() != 0 {
		return false
	}
	for _, ps := range ep.peers {
		for ch := 0; ch < 2; ch++ {
			tc := &ps.tx[ch]
			if tc.inFlight() != 0 || tc.q.Len() != 0 || tc.retx.Len() != 0 || tc.waitAck.Len() != 0 {
				return false
			}
		}
	}
	return true
}

// Drain retires this endpoint's outstanding protocol work and then keeps the
// node responsive to late arrivals without occupying the calling process.
//
// Reliability in AM lives in Poll: a node that stops polling also stops
// acknowledging, so a process that finishes its own communication and exits
// can wedge a peer that still needs one of its packets delivered or resent.
//
// Drain is endpoint-local and event-driven. The calling process polls
// until the endpoint itself is quiescent and its receive FIFO is empty, then
// returns; before returning it arms an arrival hook on the adapter. Any
// packet that lands after that (a retransmission, a request, a probe) spawns
// a short-lived daemon process that polls the endpoint back to local
// quiescence and exits. The protocol stays deadlock-free because every
// packet in flight has a sender that is not locally quiescent — so it is
// still polling, retransmitting on timeout — while a drained receiver needs
// no stimulus other than the arrival itself.
//
// budget bounds the wait in simulated time (0 = unbounded, the historical
// behavior): if the endpoint has not quiesced when budget elapses, Drain
// stops and returns a *DrainTimeoutError naming the peers and sequence
// ranges still unacknowledged. Each poll advances the simulated clock, so
// the deadline is always reached — Drain cannot wedge.
func (ep *Endpoint) Drain(p *sim.Proc, budget sim.Time) error {
	var deadline sim.Time
	if budget > 0 {
		deadline = ep.node.Eng.Now() + budget
	}
	for !ep.localQuiescent() || ep.node.Adapter.RecvLen() > 0 {
		if deadline > 0 && ep.node.Eng.Now() >= deadline {
			return &DrainTimeoutError{Node: ep.ID(), Budget: budget, Pending: ep.pendingSummary()}
		}
		ep.PollWait(p, deadline)
	}
	if ep.drainArmed {
		return nil
	}
	ep.drainArmed = true
	ep.node.Adapter.SetArrivalHook(func() {
		if ep.drainBusy {
			return // the running service proc re-checks the FIFO before exiting
		}
		ep.drainBusy = true
		ep.node.Eng.GoDaemon("am-drain-service", func(sp *sim.Proc) {
			for !ep.localQuiescent() || ep.node.Adapter.RecvLen() > 0 {
				ep.PollWait(sp, 0)
			}
			ep.drainBusy = false
		})
	})
	return nil
}
