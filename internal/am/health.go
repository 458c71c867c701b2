package am

import (
	"fmt"
	"strings"

	"spam/internal/sim"
)

// PeerDeathError reports a fail-stop declaration: a peer made no
// cumulative-ack progress across the full backoff ladder of keep-alive
// probes, so the endpoint abandoned its traffic toward it. The error is
// sticky — every later operation toward the peer returns it.
type PeerDeathError struct {
	Local, Peer int
	At          sim.Time // simulated time of the declaration
	Rounds      int      // unanswered probe rounds that preceded it
	UnackedReq  uint64   // window units never acknowledged, request channel
	UnackedRep  uint64   // window units never acknowledged, reply channel
	SeqReq      uint64   // lowest unacknowledged request sequence
	SeqRep      uint64   // lowest unacknowledged reply sequence
	FailedOps   int      // bulk operations transitioned to error state
}

func (e *PeerDeathError) Error() string {
	return fmt.Sprintf(
		"am: node %d: peer %d declared dead at t=%v after %d unanswered probe rounds "+
			"(unacked req %d from seq %d, rep %d from seq %d; %d bulk ops failed)",
		e.Local, e.Peer, e.At, e.Rounds,
		e.UnackedReq, e.SeqReq, e.UnackedRep, e.SeqRep, e.FailedOps)
}

// DrainTimeoutError reports that Drain's deadline expired before the
// endpoint quiesced; Pending describes the traffic still unaccounted for.
type DrainTimeoutError struct {
	Node    int
	Budget  sim.Time
	Pending string
}

func (e *DrainTimeoutError) Error() string {
	return fmt.Sprintf("am: node %d: drain did not quiesce within %v: %s",
		e.Node, e.Budget, e.Pending)
}

// ErrorHandler observes peer-death declarations on an endpoint. It runs
// from inside Poll, at declaration time, and must not initiate blocking
// communication; runtimes use it to mark their own per-peer error state.
type ErrorHandler func(p *sim.Proc, ep *Endpoint, peer int, err *PeerDeathError)

// SetErrorHandler installs fn as this endpoint's peer-death observer
// (nil clears it). Install before the simulation starts.
func (ep *Endpoint) SetErrorHandler(fn ErrorHandler) { ep.errHandler = fn }

// PeerErr returns the sticky fail-stop error for peer id, or nil while the
// peer is considered alive.
func (ep *Endpoint) PeerErr(id int) error {
	if ps := ep.peer(id); ps.deathErr != nil {
		return ps.deathErr
	}
	return nil
}

// rto returns the current retransmission timeout toward a peer: the
// Jacobson estimate srtt + 4·rttvar clamped to [500 µs, 50 ms], or 2 ms
// before the first Karn-valid sample.
func (ep *Endpoint) rto(ps *peerState) sim.Time {
	if ps.srtt == 0 {
		return initialRTO
	}
	return min(max(ps.srtt+4*ps.rttvar, minRTO), maxRTO)
}

// sampleRTT folds one Karn-valid round-trip sample into the peer's
// Jacobson estimators (integer arithmetic only; deterministic).
func (ep *Endpoint) sampleRTT(ps *peerState, s sim.Time) {
	if s <= 0 {
		s = 1
	}
	if ps.srtt == 0 {
		ps.srtt = s
		ps.rttvar = s / 2
	} else {
		d := ps.srtt - s
		if d < 0 {
			d = -d
		}
		ps.rttvar = (3*ps.rttvar + d) / 4
		ps.srtt = (7*ps.srtt + s) / 8
	}
	ep.Stats.RTTSamples++
	if met := ep.sys.met; met != nil {
		met.rtoNS.Observe(int64(ep.rto(ps)))
	}
}

// declarePeerDead transitions peer id to the fail-stop error state: all
// protocol queues toward it are released, every bulk operation bound to it
// is failed (waking blocked waiters), window accounting is closed so the
// endpoint can quiesce, and the registered error handler is notified. The
// declaration is sticky; late traffic from the peer (asymmetric partition)
// is ignored from here on.
func (ep *Endpoint) declarePeerDead(p *sim.Proc, id int, ps *peerState) {
	e := &PeerDeathError{
		Local:      ep.ID(),
		Peer:       id,
		At:         ep.node.Eng.Now(),
		Rounds:     ps.probeRounds,
		UnackedReq: ps.tx[chReq].inFlight(),
		UnackedRep: ps.tx[chRep].inFlight(),
		SeqReq:     ps.tx[chReq].ackedSeq,
		SeqRep:     ps.tx[chRep].ackedSeq,
	}
	for ch := 0; ch < 2; ch++ {
		tc := &ps.tx[ch]
		// Clearing q advances its monotone pop counter, which releases any
		// process blocked on a sendShortBlocking ticket toward this peer.
		tc.q.Clear()
		tc.saved.Clear()
		tc.retx.Clear()
		tc.waitAck.Clear()
		tc.ackedSeq = tc.nextSeq
		tc.hasNackRetx = false
		tc.rttValid = false
	}
	for oid, op := range ep.ops {
		if op.peer == id {
			op.failed = true
			delete(ep.ops, oid)
			e.FailedOps++
		}
	}
	ps.deathErr = e
	ps.probed = false
	ep.Stats.DeadPeers++
	if met := ep.sys.met; met != nil {
		if ka := ep.sys.Cluster.Nodes[id].KillTime(); ka > 0 && e.At > ka {
			met.detectNS.Observe(int64(e.At - ka))
		}
	}
	if ep.errHandler != nil {
		ep.errHandler(p, ep, id, e)
	}
}

// diagnose renders every endpoint's non-quiescent protocol state — the AM
// layer's contribution to the liveness watchdog's stall report.
func (s *System) diagnose() string {
	var b strings.Builder
	for _, ep := range s.EPs {
		for id, ps := range ep.peers {
			if ps.deathErr != nil {
				fmt.Fprintf(&b, "am: node %d -> %d: declared dead at t=%v\n",
					ep.ID(), id, ps.deathErr.At)
				continue
			}
			for ch := 0; ch < 2; ch++ {
				tc := &ps.tx[ch]
				if tc.inFlight() == 0 && tc.q.Len() == 0 && tc.retx.Len() == 0 && tc.waitAck.Len() == 0 {
					continue
				}
				fmt.Fprintf(&b,
					"am: node %d -> %d ch%d: seq [%d,%d) unacked, queued=%d saved=%d retx=%d waitAck=%d rounds=%d rto=%v\n",
					ep.ID(), id, ch, tc.ackedSeq, tc.nextSeq,
					tc.q.Len(), tc.saved.Len(), tc.retx.Len(), tc.waitAck.Len(),
					ps.probeRounds, ep.rto(ps))
			}
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// pendingSummary describes this endpoint's unfinished traffic (for drain
// timeouts): which peers hold unacknowledged sequences and what is queued.
func (ep *Endpoint) pendingSummary() string {
	var b strings.Builder
	for id, ps := range ep.peers {
		for ch := 0; ch < 2; ch++ {
			tc := &ps.tx[ch]
			if tc.inFlight() == 0 && tc.q.Len() == 0 && tc.retx.Len() == 0 && tc.waitAck.Len() == 0 {
				continue
			}
			if b.Len() > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "peer %d ch%d seqs [%d,%d) unacked (queued=%d retx=%d waitAck=%d)",
				id, ch, tc.ackedSeq, tc.nextSeq, tc.q.Len(), tc.retx.Len(), tc.waitAck.Len())
		}
	}
	if len(ep.ops) > 0 {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d bulk ops in flight", len(ep.ops))
	}
	if n := ep.node.Adapter.Staged(); n > 0 {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d staged FIFO entries uncommitted", n)
	}
	if b.Len() == 0 {
		return "receive FIFO not yet drained"
	}
	return b.String()
}
