// Package mpl models IBM's Message Passing Library (MPL), the vendor
// communication layer the paper benchmarks SP AM against. It runs on the
// same TB2/switch hardware model but pays MPL's software costs: a heavier
// per-call path on both sides (the kernel-mediated entry the paper blames
// for the SP's 88 µs round trip) and a per-message credit handshake that
// keeps its half-power point an order of magnitude above SP AM's.
//
// The protocol here is deliberately simpler than SP AM's: the SP switch is
// lossless and MPL relied on that, so there is no retransmission machinery.
// Packets use 28-byte headers (228-byte payloads), which is why MPL's
// asymptotic bandwidth edges out SP AM's 34.3 MB/s slightly (34.6 vs 34.3
// in the paper).
package mpl

import (
	"fmt"

	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
)

// Calibrated MPL constants. Round trip: 2*(sendOverhead + packet host work
// + one-way pipe + recvOverhead) = 88 µs on thin nodes.
const (
	costSendOverhead = 11000 * hw.Nanosecond // per mpc_send/bsend call: library+kernel entry
	costRecvOverhead = 8000 * hw.Nanosecond  // per message: matching + completion processing
	costMatch        = 1000 * hw.Nanosecond  // handing a completed message to a waiting recv
	costPollEmpty    = 1600 * hw.Nanosecond  // MPL's internal poll is heavier than SP AM's
	costPerPkt       = 1100 * hw.Nanosecond  // per received packet bookkeeping
	costPktBuild     = 850 * hw.Nanosecond   // per sent packet build (plus copy + flush)
	costCreditSend   = 2000 * hw.Nanosecond  // credit (flow-control) packet emission
)

const (
	// HeaderBytes is MPL's packet header; the payload is the rest of the
	// 256-byte FIFO entry.
	HeaderBytes = 28
	// DataBytes is MPL's per-packet payload (228).
	DataBytes = hw.FIFOEntryBytes - HeaderBytes
	// AnySource / AnyTag are the receive wildcards of MPL and MPI; AnyTag
	// takes user tags (≥ 0) only (see Matches).
	AnySource = -1
	AnyTag    = -1
)

// MPL's packet kinds are hw-level header kinds; its header fields ride the
// shared hw.Header (tag in H, total in Total, offset in BOff, last in
// Final). A packet carries no message id: the message credit keeps one
// message per pair on the wire, so the packet at offset 0 starts the next
// one. MPL headers carry no checksum — the protocol trusted the lossless
// switch — so injected corruption goes undetected, as before.
const (
	mData   = hw.KindMPLData
	mCredit = hw.KindMPLCredit
)

// Packet-level flow control: a sender keeps at most pktWindow data packets
// unacknowledged toward one destination (the receiver's FIFO share is 64
// entries per node), and the receiver credits every pktCreditEvery packets.
// Without this, a single large message (e.g. 131 KB = 575 packets) could
// overrun the receive FIFO while the receiving process is in a long
// computation phase — and MPL has no retransmission.
const (
	pktWindow      = 32
	pktCreditEvery = 16
)

// System is MPL instantiated across a cluster.
type System struct {
	EPs []*Endpoint
	// CallScale multiplies the per-call software overheads; MPI-F uses a
	// leaner, wide-node-tuned entry path over the same transport (<1.0).
	CallScale float64
}

// New builds the MPL layer on c.
func New(c *hw.Cluster) *System {
	s := &System{CallScale: 1.0}
	for _, n := range c.Nodes {
		ep := &Endpoint{node: n, n: len(c.Nodes), sys: s, peers: make([]peer, len(c.Nodes))}
		for i := range ep.peers {
			ep.peers[i].credit = 1
		}
		s.EPs = append(s.EPs, ep)
	}
	return s
}

// Endpoint is one node's MPL attachment.
type Endpoint struct {
	node *hw.Node
	n    int
	sys  *System

	peers      []peer
	unexpected ring.Ring[rxMsg]       // complete but unmatched messages, oldest first
	posted     ring.Ring[*RecvHandle] // receives waiting for a matching message, in post order
}

// peer is everything an endpoint keeps per other node. The message credit
// (window of 1) lets one message per pair onto the wire, so one arrival
// slot per sender is all the reassembly state there is.
type peer struct {
	q        ring.Ring[sendMsg] // messages queued toward this peer
	credit   int                // messages we may inject (window of 1)
	pktAhead int                // data packets in flight toward this peer

	in     rxMsg       // the message arriving from this peer
	into   *RecvHandle // the posted receive in lands in, or nil: in.buf is a library buffer
	rxPkts int         // data packets received from this peer since the last credit
}

// sendMsg is one queued message and its progress into the adapter.
type sendMsg struct {
	tag  int
	data []byte
	sent int
}

// rxMsg is a message's source, tag and length, with buf the library buffer
// it is assembled in when it arrived before its receive (nil once it has
// landed in a posted receive's own buffer).
type rxMsg struct {
	src, tag, total int
	buf             []byte
}

// Node returns the underlying node.
func (ep *Endpoint) Node() *hw.Node { return ep.node }

// ID returns this endpoint's node id.
func (ep *Endpoint) ID() int { return ep.node.ID }

// N returns the number of nodes in the system.
func (ep *Endpoint) N() int { return ep.n }

func (ep *Endpoint) callCost(base sim.Time) sim.Time {
	return sim.Time(float64(base) * ep.sys.CallScale)
}

// Send is mpc_send: it enqueues the message and returns once the library
// has accepted it, pipelining injection behind per-message credits. Data is
// captured by reference; the caller must not reuse it until
// Injected(dst, ticket) reports true for the ticket Send returns.
func (ep *Endpoint) Send(p *sim.Proc, dst, tag int, data []byte) uint64 {
	ep.node.ComputeUnscaled(p, ep.callCost(costSendOverhead))
	q := &ep.peers[dst].q
	q.Push(sendMsg{tag: tag, data: data})
	ep.progress(p)
	return q.Pushed()
}

// Injected reports whether the message Send to dst returned ticket for has
// fully entered the send FIFO. Injection is driven by library calls
// (credits arrive in the receive FIFO and are only seen by polling), so a
// caller that needs the message moving before a long silence must drive
// the endpoint until Injected.
func (ep *Endpoint) Injected(dst int, ticket uint64) bool {
	return ep.peers[dst].q.Popped() >= ticket
}

// BSend is mpc_bsend: it blocks until the source buffer is reusable, i.e.
// the message is fully injected into the adapter.
func (ep *Endpoint) BSend(p *sim.Proc, dst, tag int, data []byte) {
	for t := ep.Send(p, dst, tag, data); !ep.Injected(dst, t); {
		ep.Poll(p)
	}
}

// SendsDrained reports whether all queued sends have been injected.
func (ep *Endpoint) SendsDrained() bool {
	for i := range ep.peers {
		if ep.peers[i].q.Len() > 0 {
			return false
		}
	}
	return true
}

// DrainSends drives the library until every queued send has been injected.
func (ep *Endpoint) DrainSends(p *sim.Proc) {
	for !ep.SendsDrained() {
		ep.Poll(p)
	}
}

// Recv is mpc_brecv: it blocks until a message matching (src, tag) —
// either may be a wildcard — has fully arrived in buf, and returns
// (bytes, actual source, actual tag). A message that arrives after the
// receive is posted lands directly in buf; an early arrival sits in a
// library buffer and pays a second copy.
func (ep *Endpoint) Recv(p *sim.Proc, src, tag int, buf []byte) (int, int, int) {
	if n, from, got, ok := ep.TryRecv(p, src, tag, buf); ok {
		return n, from, got
	}
	h := ep.PostRecv(src, tag, buf)
	for !h.Done() {
		ep.Poll(p)
	}
	return h.Complete(p)
}

// TryRecv receives a matching message that has already fully arrived,
// without polling; ok is false when there is none.
func (ep *Endpoint) TryRecv(p *sim.Proc, src, tag int, buf []byte) (n, from, got int, ok bool) {
	m, ok := ep.matchUnexpected(src, tag)
	if !ok {
		return 0, 0, 0, false
	}
	n = copy(buf, m.buf[:m.total])
	p.AdvanceSeq(ep.node.MemcpyCost(n), costMatch)
	return n, m.src, m.tag, true
}

// RecvHandle is a posted receive (mpc_irecv-style), what MPI-F builds its
// rendezvous data path on. A message whose first packet finds it is
// assembled directly in buf (one copy); otherwise the message lands in a
// library buffer and is copied again by Complete (the eager early-arrival
// penalty).
type RecvHandle struct {
	ep       *Endpoint
	src, tag int
	buf      []byte
	done     bool
	msg      rxMsg // once done, the message it received
}

// PostRecv registers a receive without blocking; messages that begin
// arriving after registration land directly in buf.
func (ep *Endpoint) PostRecv(src, tag int, buf []byte) *RecvHandle {
	h := &RecvHandle{ep: ep, src: src, tag: tag, buf: buf}
	if h.msg, h.done = ep.matchUnexpected(src, tag); !h.done {
		ep.posted.Push(h)
	}
	return h
}

// Done reports whether the posted receive's message has fully arrived.
func (h *RecvHandle) Done() bool { return h.done }

// Complete finalizes a Done receive (performing the early-arrival copy if
// needed) and returns (bytes, source, tag).
func (h *RecvHandle) Complete(p *sim.Proc) (int, int, int) {
	m := h.msg
	n := min(m.total, len(h.buf))
	if m.buf == nil {
		h.ep.node.ComputeUnscaled(p, costMatch)
	} else {
		copy(h.buf, m.buf[:n])
		p.AdvanceSeq(costMatch, h.ep.node.MemcpyCost(n))
	}
	return n, m.src, m.tag
}

// Matches is the one wildcard rule, MPL's and MPI's (MPI-1.1 §3.5): a
// receive for (src, tag) takes a message from msrc with tag mtag. Negative
// tags are the library's context (mpi.PT.NextCollTag), which AnyTag never takes.
func Matches(src, tag, msrc, mtag int) bool {
	return (src == AnySource || src == msrc) && (tag == mtag || tag == AnyTag && mtag >= 0)
}

// matchPosted takes the oldest posted receive a message from src with tag
// matches.
func (ep *Endpoint) matchPosted(src, tag int) *RecvHandle {
	h, _ := ep.posted.Take(func(h **RecvHandle) bool { return Matches((*h).src, (*h).tag, src, tag) })
	return h
}

// matchUnexpected takes the oldest complete message a receive for (src,
// tag) matches.
func (ep *Endpoint) matchUnexpected(src, tag int) (rxMsg, bool) {
	return ep.unexpected.Take(func(m *rxMsg) bool { return Matches(src, tag, m.src, m.tag) })
}

// progress injects packets for queued messages as credits and FIFO space
// allow. One message per destination may be in flight at a time; the
// receiver's credit releases the next (this per-message handshake is what
// pushes MPL's n½ into the kilobytes).
func (ep *Endpoint) progress(p *sim.Proc) {
	ad := ep.node.Adapter
	for dst := range ep.peers {
		pr := &ep.peers[dst]
		for pr.q.Len() > 0 && pr.credit > 0 {
			// m stays valid across the charges below: only Send pushes, and
			// an endpoint is driven by one process.
			m := pr.q.Peek()
			for final := false; !final; {
				if ad.SendSpace() == 0 || pr.pktAhead >= pktWindow {
					// Commit any staged entries before backing off: a
					// partial batch left uncommitted would never drain and
					// would pin the FIFO full forever.
					ad.CommitLengths(p)
					return // resume on a later poll
				}
				end := min(m.sent+DataBytes, len(m.data))
				chunk := m.data[m.sent:end]
				final = end == len(m.data)
				w := hw.Header{Kind: mData, H: m.tag, Total: len(m.data), BOff: m.sent, Final: final}
				ep.node.ChargeSend(p, ep.callCost(costPktBuild), len(chunk), HeaderBytes+len(chunk))
				ad.PushSend(dst, HeaderBytes, &w, chunk)
				ad.CommitFullBatch(p)
				pr.pktAhead++
				m.sent = end
			}
			pr.credit--
			pr.q.Drop()
		}
	}
	ad.CommitLengths(p)
}

// Poll drains the receive FIFO once, reassembling messages, issuing
// credits, and driving pending sends. Every popped packet goes back to the
// node's pool once its payload has been copied out.
func (ep *Endpoint) Poll(p *sim.Proc) {
	ep.node.ComputeUnscaled(p, ep.callCost(costPollEmpty))
	ad := ep.node.Adapter
	for pkt := ad.RecvPop(); pkt != nil; pkt = ad.RecvPop() {
		ep.node.ComputeUnscaled(p, ep.callCost(costPerPkt))
		h := &pkt.Hdr
		pr := &ep.peers[pkt.Src]
		switch h.Kind {
		case mCredit:
			if h.Final {
				pr.credit++
			}
			pr.pktAhead -= h.Total
		case mData:
			pr.rxPkts++
			if pr.rxPkts >= pktCreditEvery && !h.Final {
				ep.credit(p, pkt.Src, false)
			}
			if h.BOff == 0 {
				// A matching posted receive gets the data in place.
				pr.in = rxMsg{src: pkt.Src, tag: h.H, total: h.Total}
				if pr.into = ep.matchPosted(pkt.Src, h.H); pr.into != nil {
					pr.in.buf = pr.into.buf
				} else {
					pr.in.buf = make([]byte, h.Total)
				}
			}
			if data := pkt.Data(); len(data) > 0 && h.BOff < len(pr.in.buf) {
				copy(pr.in.buf[h.BOff:], data)
				ep.node.Memcpy(p, len(data))
			}
			if h.Final {
				ep.finish(p, pr)
			}
		}
		ep.node.Pool.Put(pkt)
	}
	ep.progress(p)
}

// finish completes the message arriving in pr's slot and credits its
// sender for the next one.
func (ep *Endpoint) finish(p *sim.Proc, pr *peer) {
	m, into := pr.in, pr.into
	pr.in, pr.into = rxMsg{}, nil
	if into != nil {
		m.buf = nil // it landed in into.buf
		into.msg, into.done = m, true
	}
	ep.node.ComputeUnscaled(p, ep.callCost(costRecvOverhead))
	ep.credit(p, m.src, true)
	if into == nil {
		// The message started arriving before any matching recv was
		// posted; a recv posted mid-assembly still claims it here (with
		// the early-arrival copy), otherwise it waits in the unexpected
		// queue.
		if h := ep.matchPosted(m.src, m.tag); h != nil {
			h.msg, h.done = m, true
		} else {
			ep.unexpected.Push(m)
		}
	}
}

// credit returns the data packets received from dst since its last credit
// and, at a message's end (final), the message credit. It is pushed at
// once: control traffic bypasses the message queue and its credits.
func (ep *Endpoint) credit(p *sim.Proc, dst int, final bool) {
	w := hw.Header{Kind: mCredit, Total: ep.peers[dst].rxPkts, Final: final}
	ep.peers[dst].rxPkts = 0
	ad := ep.node.Adapter
	for ad.SendSpace() == 0 { // extremely rare; spin briefly for a slot
		p.Advance(hw.US(1))
	}
	ep.node.ChargeSend(p, ep.callCost(costCreditSend), 0, HeaderBytes)
	ad.PushSend(dst, HeaderBytes, &w, nil)
	ad.CommitLengths(p)
}

func (ep *Endpoint) String() string {
	return fmt.Sprintf("mpl.Endpoint(node %d)", ep.node.ID)
}
