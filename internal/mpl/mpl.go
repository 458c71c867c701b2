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
	"slices"

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
	// AnySource / AnyTag are wildcards for Recv matching.
	AnySource = -1
	AnyTag    = -1
)

// MPL's packet kinds are hw-level header kinds; its header fields ride the
// shared hw.Header (msgID in Op, tag in H, total in Total, offset in BOff,
// last in Final). MPL headers carry no checksum — the protocol trusted the
// lossless switch — so injected corruption goes undetected, as before.
const (
	mData      = hw.KindMPLData
	mCredit    = hw.KindMPLCredit    // message-level credit (window of 1 message per pair)
	mPktCredit = hw.KindMPLPktCredit // packet-level credit (keeps a burst inside the FIFO share)
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
		ep := &Endpoint{node: n, n: len(c.Nodes), sys: s}
		ep.tx = make([]txState, len(c.Nodes))
		ep.rx = make(map[rxKey]*rxMsg)
		ep.rxSince = make([]int, len(c.Nodes))
		for i := range ep.tx {
			ep.tx[i].credit = 1
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

	nextMsg uint64
	tx      []txState // per destination

	rx         map[rxKey]*rxMsg // partially arrived messages
	unexpected []*rxMsg         // complete but unmatched messages
	posted     []*RecvHandle    // receives waiting for a matching message
	rxSince    []int            // data packets received per source since last credit
}

type rxKey struct {
	src   int
	msgID uint64
}

// rxMsg is a message being reassembled or parked in the unexpected queue.
type rxMsg struct {
	src    int
	tag    int
	buf    []byte
	total  int
	done   bool
	direct bool // assembled straight into a posted receive's buffer
}

// txState is per-destination sender state: queued messages awaiting the
// one-outstanding-message credit.
type txState struct {
	q        ring.Ring[*SendHandle]
	credit   int // messages we may inject (window of 1)
	pktAhead int // data packets in flight toward this destination
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

// SendHandle is one queued message and its progress into the adapter.
type SendHandle struct {
	msgID    uint64
	tag      int
	data     []byte
	sent     int
	injected bool
}

// Injected reports whether the message has fully entered the send FIFO.
// Injection is driven by library calls (credits arrive in the receive FIFO
// and are only seen by polling), so a caller that needs the message moving
// before a long silence must drive the endpoint until Injected.
func (m *SendHandle) Injected() bool { return m.injected }

// Send is mpc_send: it enqueues the message and returns once the library
// has accepted it, pipelining injection behind per-message credits. Data is
// captured by reference; the caller must not reuse it until it is Injected.
func (ep *Endpoint) Send(p *sim.Proc, dst, tag int, data []byte) *SendHandle {
	ep.node.ComputeUnscaled(p, ep.callCost(costSendOverhead))
	ep.nextMsg++
	m := &SendHandle{msgID: ep.nextMsg, tag: tag, data: data}
	ep.tx[dst].q.Push(m)
	ep.progress(p)
	return m
}

// BSend is mpc_bsend: it blocks until the source buffer is reusable, i.e.
// the message is fully injected into the adapter.
func (ep *Endpoint) BSend(p *sim.Proc, dst, tag int, data []byte) {
	m := ep.Send(p, dst, tag, data)
	for !m.injected {
		ep.Poll(p)
		if !m.injected {
			ep.progress(p)
		}
	}
}

// SendsDrained reports whether all queued sends have been injected.
func (ep *Endpoint) SendsDrained() bool {
	for i := range ep.tx {
		if ep.tx[i].q.Len() > 0 {
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
	m := ep.matchUnexpected(src, tag)
	if m == nil {
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
	msg      *rxMsg
}

// PostRecv registers a receive without blocking; messages that begin
// arriving after registration land directly in buf.
func (ep *Endpoint) PostRecv(src, tag int, buf []byte) *RecvHandle {
	h := &RecvHandle{ep: ep, src: src, tag: tag, buf: buf, msg: ep.matchUnexpected(src, tag)}
	if h.msg == nil {
		ep.posted = append(ep.posted, h)
	}
	return h
}

// Done reports whether the posted receive's message has fully arrived.
func (h *RecvHandle) Done() bool { return h.msg != nil && h.msg.done }

// Complete finalizes a Done receive (performing the early-arrival copy if
// needed) and returns (bytes, source, tag).
func (h *RecvHandle) Complete(p *sim.Proc) (int, int, int) {
	m := h.msg
	n := min(m.total, len(h.buf))
	if m.direct {
		h.ep.node.ComputeUnscaled(p, costMatch)
	} else {
		copy(h.buf, m.buf[:n])
		p.AdvanceSeq(costMatch, h.ep.node.MemcpyCost(n))
	}
	return n, m.src, m.tag
}

// matches is the one wildcard rule: a receive for (src, tag) takes a
// message from msrc with tag mtag.
func matches(src, tag, msrc, mtag int) bool {
	return (src == AnySource || src == msrc) && (tag == AnyTag || tag == mtag)
}

func (ep *Endpoint) matchPosted(src, tag int) *RecvHandle {
	i := slices.IndexFunc(ep.posted, func(h *RecvHandle) bool { return matches(h.src, h.tag, src, tag) })
	if i < 0 {
		return nil
	}
	h := ep.posted[i]
	ep.posted = slices.Delete(ep.posted, i, i+1)
	return h
}

func (ep *Endpoint) matchUnexpected(src, tag int) *rxMsg {
	i := slices.IndexFunc(ep.unexpected, func(m *rxMsg) bool { return matches(src, tag, m.src, m.tag) })
	if i < 0 {
		return nil
	}
	m := ep.unexpected[i]
	ep.unexpected = slices.Delete(ep.unexpected, i, i+1)
	return m
}

// progress injects packets for queued messages as credits and FIFO space
// allow. One message per destination may be in flight at a time; the
// receiver's credit releases the next (this per-message handshake is what
// pushes MPL's n½ into the kilobytes).
func (ep *Endpoint) progress(p *sim.Proc) {
	ad := ep.node.Adapter
	for dst := range ep.tx {
		ts := &ep.tx[dst]
		for ts.q.Len() > 0 && ts.credit > 0 {
			m := *ts.q.Peek()
			for m.sent < len(m.data) || (len(m.data) == 0 && !m.injected) {
				if ad.SendSpace() == 0 || ts.pktAhead >= pktWindow {
					// Commit any staged entries before backing off: a
					// partial batch left uncommitted would never drain and
					// would pin the FIFO full forever.
					ad.CommitLengths(p)
					return // resume on a later poll
				}
				end := m.sent + DataBytes
				if end > len(m.data) {
					end = len(m.data)
				}
				chunk := m.data[m.sent:end]
				w := hw.Header{Kind: mData, Op: m.msgID, H: m.tag,
					Total: len(m.data), BOff: m.sent, Final: end == len(m.data)}
				ep.node.ChargeSend(p, ep.callCost(costPktBuild), len(chunk), HeaderBytes+len(chunk))
				ad.PushSend(dst, HeaderBytes, &w, chunk)
				ad.CommitFullBatch(p)
				ts.pktAhead++
				m.sent = end
				if len(m.data) == 0 {
					break
				}
			}
			m.injected = true
			ts.credit--
			ts.q.Pop()
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
		switch h.Kind {
		case mCredit:
			ep.tx[pkt.Src].credit++
			ep.tx[pkt.Src].pktAhead -= h.Total
		case mPktCredit:
			ep.tx[pkt.Src].pktAhead -= h.Total
		case mData:
			ep.rxSince[pkt.Src]++
			if ep.rxSince[pkt.Src] >= pktCreditEvery && !h.Final {
				ep.sendPktCredit(p, pkt.Src, ep.rxSince[pkt.Src])
				ep.rxSince[pkt.Src] = 0
			}
			key := rxKey{src: pkt.Src, msgID: h.Op}
			m := ep.rx[key]
			if m == nil {
				m = &rxMsg{src: pkt.Src, tag: h.H, total: h.Total}
				// A matching posted receive gets the data in place.
				if pr := ep.matchPosted(pkt.Src, h.H); pr != nil {
					m.direct = true
					m.buf = pr.buf
					pr.msg = m
				} else {
					m.buf = make([]byte, h.Total)
				}
				ep.rx[key] = m
			}
			if len(pkt.Data) > 0 && h.BOff < len(m.buf) {
				copy(m.buf[h.BOff:], pkt.Data)
				ep.node.Memcpy(p, len(pkt.Data))
			}
			if h.Final {
				m.done = true
				delete(ep.rx, key)
				ep.node.ComputeUnscaled(p, ep.callCost(costRecvOverhead))
				ep.sendCredit(p, pkt.Src)
				if !m.direct {
					// The message started arriving before any matching recv
					// was posted; a recv posted mid-assembly still claims it
					// here (with the early-arrival copy), otherwise it waits
					// in the unexpected queue.
					if pr := ep.matchPosted(pkt.Src, m.tag); pr != nil {
						pr.msg = m
					} else {
						ep.unexpected = append(ep.unexpected, m)
					}
				}
			}
		}
		ep.node.Pool.Put(pkt)
	}
	ep.progress(p)
}

func (ep *Endpoint) sendCredit(p *sim.Proc, dst int) {
	residue := ep.rxSince[dst]
	ep.rxSince[dst] = 0
	w := hw.Header{Kind: mCredit, Total: residue}
	ep.emitCtl(p, dst, &w)
}

func (ep *Endpoint) sendPktCredit(p *sim.Proc, dst, count int) {
	w := hw.Header{Kind: mPktCredit, Total: count}
	ep.emitCtl(p, dst, &w)
}

// emitCtl pushes a flow-control packet immediately (control traffic
// bypasses the message queue and its credits).
func (ep *Endpoint) emitCtl(p *sim.Proc, dst int, w *hw.Header) {
	ad := ep.node.Adapter
	if ad.SendSpace() == 0 {
		// Extremely rare; spin briefly for a slot.
		for ad.SendSpace() == 0 {
			p.Advance(hw.US(1))
		}
	}
	ep.node.ChargeSend(p, ep.callCost(costCreditSend), 0, HeaderBytes)
	ad.PushSend(dst, HeaderBytes, w, nil)
	ad.CommitLengths(p)
}

func (ep *Endpoint) String() string {
	return fmt.Sprintf("mpl.Endpoint(node %d)", ep.node.ID)
}
