package am

import (
	"fmt"

	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/trace"
)

// Request sends a short request of up to four words to dst and invokes
// handler h there. As in the paper, each am_request polls the network once
// after sending. Requests may not be issued from inside a handler.
//
// A non-nil error means dst has been declared fail-stopped (PeerDeathError)
// and the request was not — or can no longer be confirmed — delivered.
func (ep *Endpoint) Request(p *sim.Proc, dst int, h HandlerID, args ...uint32) error {
	ep.mustNotBeInHandler("Request")
	if err := ep.PeerErr(dst); err != nil {
		return err
	}
	ep.emit(trace.EvReqStart, 0, int64(len(args)), "")
	m := ep.shortMsg(kRequest, chReq, h, args)
	ep.sendShortBlocking(p, dst, m, costReqBuild+wordsCost(len(args)))
	ep.Poll(p)
	return ep.PeerErr(dst)
}

// Reply sends a short reply to the requester identified by tok. Replies are
// only legal from request handlers, and each request may be replied to at
// most once. Replying to a peer already declared dead returns its
// PeerDeathError without queueing anything.
func (ep *Endpoint) Reply(p *sim.Proc, tok Token, h HandlerID, args ...uint32) error {
	if !tok.mayReply {
		panic("am: Reply outside a request handler, or replied twice")
	}
	if err := ep.PeerErr(tok.Src); err != nil {
		return err
	}
	ep.emit(trace.EvReplyStart, 0, int64(len(args)), "")
	m := ep.shortMsg(kReply, chRep, h, args)
	ps := ep.peer(tok.Src)
	ps.tx[chRep].q.Push(txOp{m: m, isShort: true})
	// Best-effort injection; if the window or FIFO is full the reply stays
	// queued and the surrounding Poll drains it later (handlers must not
	// spin on the network).
	ep.drainPeer(p, tok.Src)
	return nil
}

// Store copies data into the remote block at (dst, raddr) and invokes bulk
// handler h on dst when the transfer completes. It blocks until the source
// memory is reusable, i.e. the final chunk has been acknowledged (§2.2: for
// transfers beyond one chunk this is indistinguishable from StoreAsync).
// If dst is declared dead before the final acknowledgement, the operation
// fails and its PeerDeathError is returned.
func (ep *Endpoint) Store(p *sim.Proc, dst int, raddr hw.Addr, data []byte, h HandlerID, arg uint32) error {
	op, g, err := ep.startStore(p, dst, raddr, data, h, arg, nil)
	if err != nil {
		return err
	}
	// The op record is recycled once acked; a changed generation means it
	// completed (and was reused) while we polled. Failed records are never
	// recycled, so the flag check below is race-free.
	for op.gen == g && !op.acked && !op.failed {
		ep.PollWait(p, 0)
	}
	if op.gen == g && op.failed {
		return ep.PeerErr(dst)
	}
	return nil
}

// StoreAsync is the non-blocking store: it returns after queueing the
// transfer and calls onComplete (if non-nil) from a later Poll once the
// source region is reusable. A non-nil error means dst was already declared
// dead and nothing was queued (onComplete will not run).
func (ep *Endpoint) StoreAsync(p *sim.Proc, dst int, raddr hw.Addr, data []byte,
	h HandlerID, arg uint32, onComplete CompletionFunc) error {
	_, _, err := ep.startStore(p, dst, raddr, data, h, arg, onComplete)
	return err
}

func (ep *Endpoint) startStore(p *sim.Proc, dst int, raddr hw.Addr, data []byte,
	h HandlerID, arg uint32, onComplete CompletionFunc) (*bulkOp, uint64, error) {
	ep.mustNotBeInHandler("Store")
	if err := ep.PeerErr(dst); err != nil {
		return nil, 0, err
	}
	ep.node.ComputeUnscaled(p, costStoreSetup)
	op := ep.getBulkOp()
	op.id = ep.opID()
	op.bk = bkStore
	op.peer = dst
	op.ch = chReq
	op.src = data
	op.daddr = raddr
	op.total = len(data)
	op.h = h
	op.arg = arg
	op.onComplete = onComplete
	g := op.gen // capture before any Poll can complete and recycle the op
	ep.track(op)
	ps := ep.peer(dst)
	ps.tx[chReq].q.Push(txOp{bulk: op})
	ep.drainPeer(p, dst)
	// Stores are request-class operations: like am_request, every call
	// polls the network once, which also keeps receive FIFOs drained
	// during store bursts.
	ep.Poll(p)
	return op, g, nil
}

// Get fetches nbytes from the remote block (dst, raddr) into the local
// block laddr and blocks until the data has arrived; handler h (if not
// NoHandler) is invoked locally on completion with argument 0, matching
// am_get's semantics. If dst is declared dead before the data arrives, the
// operation fails and its PeerDeathError is returned.
func (ep *Endpoint) Get(p *sim.Proc, dst int, raddr hw.Addr, laddr hw.Addr, nbytes int, h HandlerID) error {
	op, g, err := ep.startGet(p, dst, raddr, laddr, nbytes, h)
	if err != nil {
		return err
	}
	for op.gen == g && !op.done && !op.failed {
		ep.PollWait(p, 0)
	}
	if op.gen == g && op.failed {
		return ep.PeerErr(dst)
	}
	return nil
}

// GetAsync initiates the fetch and returns; h runs locally when the data
// has fully arrived. A non-nil error means dst was already declared dead
// and nothing was sent.
func (ep *Endpoint) GetAsync(p *sim.Proc, dst int, raddr hw.Addr, laddr hw.Addr, nbytes int, h HandlerID) error {
	_, _, err := ep.startGet(p, dst, raddr, laddr, nbytes, h)
	return err
}

func (ep *Endpoint) startGet(p *sim.Proc, dst int, raddr hw.Addr, laddr hw.Addr, nbytes int,
	h HandlerID) (*bulkOp, uint64, error) {
	ep.mustNotBeInHandler("Get")
	if err := ep.PeerErr(dst); err != nil {
		return nil, 0, err
	}
	op := ep.getBulkOp()
	op.id = ep.opID()
	op.bk = bkGet
	op.peer = dst
	op.ch = chRep
	op.daddr = laddr
	op.total = nbytes
	op.h = h
	g := op.gen
	ep.track(op)
	// The request carries am_get's one argument word, always zero: the
	// header and its costs are am_get's.
	m := msg{
		Kind: kGetReq, Ch: chReq, Op: op.id,
		RAddr: raddr, LAddr: laddr, NBytes: nbytes,
		H: int(h), Nargs: 1,
	}
	ep.sendShortBlocking(p, dst, m, costStoreSetup)
	return op, g, nil
}

// mustNotBeInHandler enforces the GAM handler restriction the paper leans
// on in §4.1: handlers may only reply, never initiate requests or transfers.
func (ep *Endpoint) mustNotBeInHandler(what string) {
	if ep.inHandler {
		panic(fmt.Sprintf("am: %s from inside a handler (handlers may only Reply)", what))
	}
}

func (ep *Endpoint) opID() uint64 {
	ep.nextOp++
	return ep.nextOp
}

func (ep *Endpoint) track(op *bulkOp) {
	if ep.ops == nil {
		ep.ops = make(map[uint64]*bulkOp)
	}
	ep.ops[op.id] = op
}

func (ep *Endpoint) shortMsg(k hw.Kind, ch int, h HandlerID, args []uint32) msg {
	if len(args) > 4 {
		panic("am: more than 4 argument words")
	}
	if int(h) < 0 {
		panic("am: invalid handler id")
	}
	m := msg{Kind: k, Ch: ch, H: int(h), Nargs: len(args)}
	copy(m.Args[:], args)
	return m
}

// sendShortBlocking queues m and polls until it has been injected (window
// and FIFO space acquired); buildCost is the host build charge. Injection
// is detected through the queue ring's monotone pop counter: shorts are
// popped exactly when injected, so once our ticket has been popped the
// message is on the wire.
func (ep *Endpoint) sendShortBlocking(p *sim.Proc, dst int, m msg, buildCost sim.Time) {
	ps := ep.peer(dst)
	tc := &ps.tx[m.Ch]
	tc.q.Push(txOp{m: m, isShort: true, shortBuild: buildCost})
	ticket := tc.q.Pushed()
	ep.drainPeer(p, dst)
	for tc.q.Popped() < ticket {
		ep.Poll(p)
	}
}

// drainAll advances pending traffic to every peer.
func (ep *Endpoint) drainAll(p *sim.Proc) {
	for id := range ep.peers {
		ep.drainPeer(p, id)
	}
}

// drainPeer injects as much pending traffic to peer dst as the windows and
// the send FIFO allow: retransmissions first (they are inside the window by
// construction), then queued operations in order. One MicroChannel
// length-array access is charged per drain that pushed anything (the
// paper's batched-lengths optimization).
func (ep *Endpoint) drainPeer(p *sim.Proc, dst int) {
	ps := ep.peer(dst)
	if ps.deathErr != nil {
		return // nothing is ever injected toward a dead peer
	}
	ad := ep.node.Adapter

	for ch := 0; ch < 2; ch++ {
		tc := &ps.tx[ch]
		// Retransmissions: limited only by FIFO space.
		for tc.retx.Len() > 0 && ad.SendSpace() > 0 {
			sp := tc.retx.Pop()
			ep.injectSaved(p, dst, sp)
			ad.CommitFullBatch(p)
		}
		// Fresh operations.
		for tc.q.Len() > 0 {
			op := tc.q.Peek()
			if op.isShort {
				if ad.SendSpace() < 1 || tc.inFlight()+1 > uint64(tc.wnd) {
					break
				}
				ep.injectShort(p, dst, tc, op)
				tc.q.Drop()
				continue
			}
			// Bulk op: inject whole chunks while window+FIFO allow.
			bulk := op.bulk
			ep.injectBulkChunks(p, dst, tc, bulk)
			if bulk.injected {
				tc.q.Drop()
				continue
			}
			break // chunk would not fit now; resume on a later poll
		}
	}
	ad.CommitLengths(p)
}

// stampAcks piggybacks cumulative acks for dst onto m and resets the
// explicit-ack debt.
func (ep *Endpoint) stampAcks(dst int, m *msg) {
	ps := ep.peer(dst)
	if ep.sys.Opt.PiggybackAcks || m.Kind == kAck || m.Kind == kNack {
		m.AckReq = ps.rx[chReq].expect
		m.AckRep = ps.rx[chRep].expect
		m.HasAck = true
		ps.rx[chReq].unackedPkts = 0
		ps.rx[chRep].unackedPkts = 0
		ps.forceAck = false
	}
}

// injectShort pushes one short message, charging build + flush. op points
// at the queue ring's head slot; the caller pops it immediately after.
func (ep *Endpoint) injectShort(p *sim.Proc, dst int, tc *txChan, op *txOp) {
	m := &op.m
	m.Seq = tc.nextSeq
	tc.nextSeq++
	if met := ep.sys.met; met != nil {
		met.inflight.Observe(int64(tc.inFlight()))
		met.sendFIFO.Observe(int64(hw.SendFIFOEntries - ep.node.Adapter.SendSpace()))
	}
	build := op.shortBuild
	if build == 0 {
		build = ep.ctrlBuildCost(m)
	}
	wire := ep.shortWire(m)
	ep.node.ChargeSend(p, build, 0, wire)
	ep.stampAcks(dst, m)
	ep.push(dst, m, nil, wire)
	if m.Kind != kAck && m.Kind != kNack && m.Kind != kProbe {
		tc.saved.Push(savedPkt{m: *m})
		if !tc.rttValid {
			// Start an RTT sample on this fresh (never retransmitted)
			// sequence; injectSaved invalidates it if a covering
			// retransmission happens first (Karn's rule).
			tc.rttValid = true
			tc.rttSeq = m.Seq
			tc.rttAt = ep.node.Eng.Now()
		}
	}
}

func (ep *Endpoint) ctrlBuildCost(m *msg) sim.Time {
	switch m.Kind {
	case kReply:
		return costReplyBuild + wordsCost(m.Nargs)
	case kAck, kNack, kProbe:
		return costCtrlBuild
	default:
		return costReqBuild + wordsCost(m.Nargs)
	}
}

func (ep *Endpoint) shortWire(m *msg) int {
	switch m.Kind {
	case kRequest, kReply:
		return shortWireBytes(m.Nargs)
	case kGetReq:
		return hw.PacketHeaderSize + 16 // addresses + length
	default:
		return hw.PacketHeaderSize
	}
}

// injectBulkChunks pushes as many whole chunks of op as fit; returns whether
// anything was pushed.
func (ep *Endpoint) injectBulkChunks(p *sim.Proc, dst int, tc *txChan, op *bulkOp) bool {
	ad := ep.node.Adapter
	pushed := false
	for op.sent < op.total || (op.total == 0 && !op.injected) {
		rem := op.total - op.sent
		chunkBytes := rem
		if chunkBytes > ChunkBytes {
			chunkBytes = ChunkBytes
		}
		pkts := (chunkBytes + hw.PacketDataSize - 1) / hw.PacketDataSize
		if pkts == 0 {
			pkts = 1 // zero-byte store: a single header-only packet
		}
		if tc.inFlight()+uint64(pkts) > uint64(tc.wnd) || ad.SendSpace() < pkts {
			return pushed
		}
		final := op.sent+chunkBytes >= op.total
		seq := tc.nextSeq
		tc.nextSeq += uint64(pkts)
		if !tc.rttValid {
			// Time the chunk: its cumulative ack (seq+pkts) completes the
			// sample unless a retransmission covers it first.
			tc.rttValid = true
			tc.rttSeq = seq
			tc.rttAt = ep.node.Eng.Now()
		}
		for i := 0; i < pkts; i++ {
			off := op.sent + i*hw.PacketDataSize
			end := off + hw.PacketDataSize
			if end > op.total {
				end = op.total
			}
			var data []byte
			if op.src != nil {
				data = op.src[off:end]
			}
			wire := hw.PacketHeaderSize + len(data)
			ep.node.ChargeSend(p, costBulkPerPkt, len(data), wire)
			// Built field by field in its (zeroed) saved slot: a composite
			// literal would be built aside and copied in.
			sp := tc.saved.PushSlot()
			sp.data = data
			m := &sp.m
			m.Kind, m.Ch, m.Seq, m.BK, m.Op = kChunk, op.ch, seq, op.bk, op.id
			m.DAddr = hw.Addr{Seg: op.daddr.Seg, Off: op.daddr.Off + off}
			m.Total, m.ChunkPkts, m.PktIdx, m.Final = op.total, pkts, i, final
			m.H, m.Arg, m.BOff = int(op.h), op.arg, off
			ep.stampAcks(dst, m)
			ep.push(dst, m, data, wire)
			ad.CommitFullBatch(p)
		}
		op.sent += chunkBytes
		op.lastSeq = seq
		op.span = uint64(pkts)
		pushed = true
		if final {
			op.injected = true
			tc.waitAck.Push(op)
			return pushed
		}
	}
	return pushed
}

// injectSaved retransmits one saved packet (charging rebuild costs).
func (ep *Endpoint) injectSaved(p *sim.Proc, dst int, sp savedPkt) {
	tc := &ep.peer(dst).tx[sp.m.Ch]
	if tc.rttValid && sp.m.Seq <= tc.rttSeq && tc.rttSeq < sp.m.Seq+sp.m.Span() {
		// Karn's rule: the timed sequence is being retransmitted, so a later
		// ack can no longer be attributed to one flight — drop the sample.
		tc.rttValid = false
	}
	ep.Stats.Retransmits++
	ep.emit(trace.EvRetransmit, 0, int64(sp.m.Seq), sp.m.Kind.Class())
	m := sp.m // copy; re-stamp acks freshly
	build, wire := costBulkPerPkt, hw.PacketHeaderSize+len(sp.data)
	if m.Kind != kChunk {
		build, wire = ep.ctrlBuildCost(&m), ep.shortWire(&m)
	}
	ep.node.ChargeSend(p, build, len(sp.data), wire)
	ep.stampAcks(dst, &m)
	ep.push(dst, &m, sp.data, wire)
}

// push places the packet in the send FIFO (caller verified space). The
// wire checksum is stamped here — after ack piggybacking — so every
// transmission, including retransmissions, carries a checksum over its
// final header contents.
func (ep *Endpoint) push(dst int, m *msg, data []byte, wire int) {
	m.Csum = m.WireChecksum(data)
	ep.Stats.PacketsSent++
	ep.node.Adapter.PushSend(dst, wire-len(data), m, data)
}

// sendCtrl queues and (best-effort) injects a control packet (ack, nack,
// probe) to dst on the reply channel's FIFO path. Control packets carry no
// sequence number and are never saved.
func (ep *Endpoint) sendCtrl(p *sim.Proc, dst int, k hw.Kind, nackSeq uint64, ch int) {
	ad := ep.node.Adapter
	if ad.SendSpace() < 1 {
		return // congested: drop the control packet; keep-alive recovers
	}
	m := msg{Kind: k, Ch: ch, Seq: nackSeq}
	ep.node.ChargeSend(p, costCtrlBuild, 0, hw.PacketHeaderSize)
	ep.stampAcks(dst, &m)
	ep.push(dst, &m, nil, hw.PacketHeaderSize)
	ad.CommitLengths(p)
	switch k {
	case kAck:
		ep.Stats.AcksSent++
	case kNack:
		ep.Stats.NacksSent++
	case kProbe:
		ep.Stats.Probes++
	}
}
