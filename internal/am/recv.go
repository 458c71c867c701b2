package am

import (
	"math"

	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/trace"
)

// emit records one protocol-level trace event for this endpoint when a
// recorder is attached; a disabled run pays a single nil check.
func (ep *Endpoint) emit(k trace.Kind, pkt, arg int64, class string) {
	if rec := ep.node.Eng.Tracer(); rec != nil {
		rec.Emit(int64(ep.node.Eng.Now()), k, ep.node.ID, pkt, arg, class)
	}
}

// Poll services the network once: it drains every packet currently in the
// receive FIFO (invoking handlers as messages complete), applies
// acknowledgements, issues flow-control traffic, and advances pending
// outgoing work. Polling an empty network costs 1.3 µs plus about 1.8 µs
// per received message (paper §2.5).
func (ep *Endpoint) Poll(p *sim.Proc) {
	ep.pollBegin(p)
	ep.node.ComputeUnscaled(p, costPollEmpty)
	ep.pollFinish(p)
}

// PollWait polls until a poll does anything other than find the network
// idle, or until one completes at or after until (0 = no deadline), and
// returns how many polls it made (at least one). Simulated times, trace
// events, metric observations and every counter are exactly those of that
// many Poll calls; what it saves is host time — a run of idle polls is
// stepped inline in the scheduler loop (sim.Proc.AdvanceWhile) instead of
// switching to this process once per poll.
//
// When may a loop use it? `for !cond { ep.Poll(p) }` may become
// `for !cond { ep.PollWait(p, until) }` when cond can change only inside a
// poll of this endpoint (a handler, a completion callback, an error
// declaration) or by the clock reaching until. It may not when another
// process sets cond directly, when the loop body does work of its own on
// every iteration, or when the loop is count-bounded. Returning early is
// always safe — the caller re-tests cond and calls again — and PollWait
// does so whenever the next poll is not provably pure bookkeeping.
func (ep *Endpoint) PollWait(p *sim.Proc, until sim.Time) (polls int) {
	ep.pollBegin(p)
	ep.idleLeft, ep.idleRan, ep.idleUntil = ep.idleBudget(), 0, until
	p.AdvanceWhile(costPollEmpty, ep.idleStepFn)
	polls = ep.idleRan + 1
	if polls > 1 {
		ep.settleIdle(polls - 1)
	}
	ep.pollFinish(p)
	return polls
}

// pollBegin is everything a poll does before charging its empty-poll cost.
func (ep *Endpoint) pollBegin(p *sim.Proc) {
	if ep.node.Killed() {
		// Fail-stopped node: the program never runs another instruction.
		// Detach parks the process forever and reclassifies it as a daemon
		// so the rest of the simulation can finish without it.
		p.Detach("fail-stopped (killed)")
	}
	ep.pollStart()
}

// pollStart is pollBegin past the kill check, which idleStep makes itself.
func (ep *Endpoint) pollStart() {
	ep.Stats.Polls++
	ep.emit(trace.EvPollStart, 0, 0, "")
	if m := ep.sys.met; m != nil {
		m.recvFIFO.Observe(int64(ep.node.Adapter.RecvLen()))
	}
}

// pollFinish is everything a poll does once its empty-poll cost has elapsed.
func (ep *Endpoint) pollFinish(p *sim.Proc) {
	ad := ep.node.Adapter
	got := 0
	for pkt := ad.RecvPop(); pkt != nil; pkt = ad.RecvPop() {
		got++
		ep.chargePop(p)
		if !ep.processPacket(p, pkt) {
			ep.node.Pool.Put(pkt)
		}
	}
	if got == 0 {
		ep.Stats.EmptyPolls++
		ep.keepAlive(p)
	}
	ep.drainAll(p)
	ep.explicitAcks(p)
	ep.pollEnd(got)
}

// pollEnd closes a poll that received got packets, for the observers.
func (ep *Endpoint) pollEnd(got int) {
	if m := ep.sys.met; m != nil {
		m.pollBatch.Observe(int64(got))
	}
	ep.emit(trace.EvPollEnd, 0, int64(got), "")
}

// idleStep is PollWait's AdvanceWhile step. It runs at the instant a poll's
// empty-poll cost has elapsed, in the scheduler loop rather than in the
// polling process. If that poll finds the FIFO empty, finishing it is pure
// bookkeeping (idleLeft, computed by idleBudget), and the caller would go
// straight on to another poll (not past until, node not killed), it finishes
// the poll and begins the next one, emitting what pollFinish and pollBegin
// would. Otherwise it returns false having changed nothing, and the process
// wakes to finish the poll through pollFinish.
func (ep *Endpoint) idleStep() bool {
	if ep.idleLeft == 0 || ep.node.Adapter.RecvLen() != 0 ||
		(ep.idleUntil > 0 && ep.node.Eng.Now() >= ep.idleUntil) || ep.node.Killed() {
		return false
	}
	ep.idleLeft--
	ep.idleRan++
	ep.Stats.EmptyPolls++
	ep.pollEnd(0)
	ep.pollStart()
	return true
}

// idleBudget reports how many consecutive empty polls, starting with the one
// in progress, would change nothing but counters and keep-alive streaks: 0
// when drainAll or explicitAcks has anything to attempt (their outcome
// depends on send-FIFO space, which moves with time), otherwise the polls
// left before the first peer with unacknowledged traffic reaches its
// keep-alive threshold. Nothing it reads can change during such a run —
// only this endpoint's own polls touch it.
func (ep *Endpoint) idleBudget() int {
	if ad := ep.node.Adapter; ad.Staged() != 0 || ad.RecvLen() != 0 {
		return 0
	}
	budget := math.MaxInt
	for _, ps := range ep.peers {
		if ps.deathErr != nil {
			continue
		}
		if ep.ackDue(ps) {
			return 0
		}
		req, rep := &ps.tx[chReq], &ps.tx[chRep]
		if req.q.Len() != 0 || req.retx.Len() != 0 || rep.q.Len() != 0 || rep.retx.Len() != 0 {
			return 0
		}
		if req.saved.Len() == 0 && rep.saved.Len() == 0 {
			continue
		}
		left := ep.sys.Opt.KeepAlivePolls<<ep.probeShift(ps) - 1 - ps.emptyStreak
		if left <= 0 {
			return 0
		}
		if left < budget {
			budget = left
		}
	}
	return budget
}

// settleIdle applies keepAlive's per-peer effect of the n empty polls that
// idleStep finished: all of them stayed below every probe threshold.
func (ep *Endpoint) settleIdle(n int) {
	for _, ps := range ep.peers {
		if ps.deathErr != nil {
			continue
		}
		if ps.tx[chReq].saved.Len() == 0 && ps.tx[chRep].saved.Len() == 0 {
			ps.emptyStreak = 0
			ps.probeRounds = 0
			ps.nextProbeAt = 0
		} else {
			ps.emptyStreak += n
		}
	}
}

// chargePop accounts the lazy receive-FIFO pop: entries are flushed and
// popped in batches to amortize the MicroChannel access (paper §2.1).
func (ep *Endpoint) chargePop(p *sim.Proc) {
	ep.popCount++
	if !ep.sys.Opt.LazyPop || ep.popCount%lazyPopBatch == 0 {
		p.Advance(ep.node.Adapter.Params().MCAccess)
	}
}

// processPacket consumes one received packet and reports whether it
// retained the packet record (only raw-mode packets are kept, queued for
// RawRecv); the caller returns unretained packets to the pool.
func (ep *Endpoint) processPacket(p *sim.Proc, pkt *hw.Packet) bool {
	m := &pkt.Hdr
	src := pkt.Src
	ep.Stats.PacketsReceived++
	// Wire checksum first: a corrupted packet must never reach a handler,
	// advance an ack horizon, or touch reassembly state. Discarding it here
	// turns corruption into loss, which the NACK/keep-alive machinery
	// already recovers (sequenced packets via go-back-N on the next gap,
	// control packets via probe/refresh).
	if m.Csum != m.WireChecksum(pkt.Data()) {
		ep.Stats.CorruptDropped++
		ep.node.ComputeUnscaled(p, costPerMsg) // the host still examined it
		return false
	}
	ps := ep.peer(src)
	if ps.deathErr != nil {
		// Declared dead: late traffic (an asymmetric partition, not a true
		// fail-stop) is ignored — the declaration is sticky.
		ep.node.ComputeUnscaled(p, costPerMsg)
		return false
	}
	ps.emptyStreak = 0

	if m.Kind == kRaw {
		ep.node.ComputeUnscaled(p, costRawRecv)
		ep.rawQ.Push(pkt)
		return true
	}
	ep.node.ComputeUnscaled(p, costPerMsg)

	if m.HasAck {
		ep.applyAck(p, src, m.AckReq, m.AckRep)
	}
	switch m.Kind {
	case kAck:
		// Cumulative ack already applied above.
	case kNack:
		ep.handleNack(src, m)
	case kProbe:
		ps.forceAck = true
	case kRequest, kReply, kGetReq, kChunk:
		ep.handleSequenced(p, src, ps, m, pkt)
	}
	return false
}

// applyAck advances both channels' acked horizons, prunes the retransmit
// store, and fires bulk-op completions in injection order.
func (ep *Endpoint) applyAck(p *sim.Proc, src int, ackReq, ackRep uint64) {
	ps := ep.peer(src)
	for ch, ack := range [2]uint64{ackReq, ackRep} {
		tc := &ps.tx[ch]
		if ack <= tc.ackedSeq {
			continue
		}
		tc.ackedSeq = ack
		// Cumulative-ack progress: the peer is alive, so any probe-round
		// ladder restarts from scratch.
		ps.probeRounds = 0
		ps.nextProbeAt = 0
		if tc.rttValid && ack > tc.rttSeq {
			// The timed flight completed without a covering retransmission
			// (Karn's rule kept the sample valid): feed the estimator.
			tc.rttValid = false
			ep.sampleRTT(ps, ep.node.Eng.Now()-tc.rttAt)
		}
		for tc.saved.Len() > 0 {
			sp := tc.saved.Peek()
			if sp.m.Seq+sp.m.Span() > ack {
				break
			}
			tc.saved.Drop()
		}
		if tc.hasNackRetx && tc.ackedSeq > tc.lastNackRetx {
			tc.hasNackRetx = false
		}
		for tc.waitAck.Len() > 0 {
			op := *tc.waitAck.Peek()
			if !op.injected || tc.ackedSeq < op.lastSeq+op.span {
				break
			}
			tc.waitAck.Drop()
			op.acked = true
			// Only evict our own tracked op: get-data ops we serve for a
			// peer carry the INITIATOR's id, which may coincide with one
			// of our own in-flight ids.
			if cur, ok := ep.ops[op.id]; ok && cur == op {
				delete(ep.ops, op.id)
			}
			if op.onComplete != nil {
				ep.inHandler = true
				op.onComplete(p, ep)
				ep.inHandler = false
			}
			// Recycle the record; a blocked Store waiter notices either
			// acked (before reuse) or the bumped generation (after).
			ep.putBulkOp(op)
		}
	}
	// A probe was outstanding: if this ack leaves saved packets uncovered,
	// the receiver never saw them — retransmit (keep-alive recovery, §2.2).
	if ps.probed {
		ps.probed = false
		for ch := 0; ch < 2; ch++ {
			tc := &ps.tx[ch]
			if tc.saved.Len() > 0 {
				tc.retx.Clear()
				for i := 0; i < tc.saved.Len(); i++ {
					tc.retx.Push(*tc.saved.At(i))
				}
			}
		}
	}
}

// handleNack queues go-back-N retransmission of everything from the
// receiver's expected sequence onward.
func (ep *Endpoint) handleNack(src int, m *msg) {
	tc := &ep.peer(src).tx[m.Ch]
	if tc.hasNackRetx && tc.lastNackRetx == m.Seq && tc.retx.Len() > 0 {
		return // already retransmitting for this loss event
	}
	tc.retx.Clear()
	for i := 0; i < tc.saved.Len(); i++ {
		sp := tc.saved.At(i)
		if sp.m.Seq >= m.Seq {
			tc.retx.Push(*sp)
		}
	}
	if tc.retx.Len() > 0 {
		tc.hasNackRetx = true
		tc.lastNackRetx = m.Seq
	}
}

func (ep *Endpoint) handleSequenced(p *sim.Proc, src int, ps *peerState, m *msg, pkt *hw.Packet) {
	rc := &ps.rx[m.Ch]
	switch {
	case m.Seq > rc.expect:
		// A gap: something was dropped. NACK once per loss event, with a
		// periodic refresh in case the nack or the retransmission burst was
		// itself lost.
		rc.badSince++
		if rc.lastNacked != rc.expect || rc.badSince >= nackRefresh {
			rc.lastNacked = rc.expect
			rc.badSince = 0
			ep.sendCtrl(p, src, kNack, rc.expect, m.Ch)
		}
	case m.Seq < rc.expect:
		// Duplicate from a retransmission; re-ack so the sender can slide.
		ep.Stats.Duplicates++
		ps.forceAck = true
	default:
		rc.lastNacked = ^uint64(0)
		rc.badSince = 0
		if m.Kind == kChunk {
			ep.acceptChunkPacket(p, src, ps, rc, m, pkt)
		} else {
			rc.expect++
			rc.unackedPkts++
			ep.deliverShort(p, src, m, pkt.TraceID)
		}
	}
}

// acceptChunkPacket reassembles the in-order chunk at rc.expect; packets
// within a chunk share its sequence number and are ordered by offset
// (paper §2.2). Reassembly state lives inline in the rxChan with a reused
// arrival bitmap — chunks are strictly in-order, so one suffices.
func (ep *Endpoint) acceptChunkPacket(p *sim.Proc, src int, ps *peerState, rc *rxChan, m *msg, pkt *hw.Packet) {
	if !rc.chunkActive || rc.chunkSeq != m.Seq {
		rc.startChunk(m.Seq, m.ChunkPkts)
	}
	if rc.chunkGot[m.PktIdx] {
		ep.Stats.Duplicates++
		return
	}
	rc.chunkGot[m.PktIdx] = true
	rc.chunkCount++
	if data := pkt.Data(); len(data) > 0 {
		copy(ep.node.Mem.Slice(m.DAddr, len(data)), data)
		ep.node.Memcpy(p, len(data))
	}
	if !ep.sys.Opt.AckPerChunk {
		// Ablation: the naive protocol acknowledges every data packet as
		// it arrives instead of once per chunk.
		ep.sendCtrl(p, src, kAck, 0, m.Ch)
	}
	if rc.chunkCount < rc.chunkNeed {
		return
	}
	// Chunk complete: slide, schedule its (single) acknowledgement.
	need := rc.chunkNeed
	rc.chunkActive = false
	rc.expect += uint64(need)
	rc.unackedPkts += need
	if ep.sys.Opt.AckPerChunk {
		ps.forceAck = true
	}
	if !m.Final {
		return
	}
	// Whole operation arrived.
	base := hw.Addr{Seg: m.DAddr.Seg, Off: m.DAddr.Off - m.BOff}
	switch m.BK {
	case bkStore:
		if HandlerID(m.H) != NoHandler {
			ep.runBulkHandler(p, HandlerID(m.H), Token{Src: src, mayReply: true}, base, m.Total, m.Arg, pkt.TraceID)
		}
	case bkGet:
		// We initiated this get; data is home.
		if op, ok := ep.ops[m.Op]; ok {
			op.done = true
			delete(ep.ops, m.Op)
			// Recycle; a blocked Get waiter sees done or the bumped gen.
			ep.putBulkOp(op)
		}
		if HandlerID(m.H) != NoHandler {
			ep.runBulkHandler(p, HandlerID(m.H), Token{Src: src, mayReply: false}, base, m.Total, m.Arg, pkt.TraceID)
		}
	}
}

func (ep *Endpoint) deliverShort(p *sim.Proc, src int, m *msg, tid int64) {
	switch m.Kind {
	case kRequest:
		ep.runHandler(p, HandlerID(m.H), Token{Src: src, mayReply: true}, m.Args[:m.Nargs], tid)
	case kReply:
		ep.runHandler(p, HandlerID(m.H), Token{Src: src, mayReply: false}, m.Args[:m.Nargs], tid)
	case kGetReq:
		// Serve the get: stream our memory back on the reply channel. The
		// op id is the initiator's, echoed on the data packets; the op is
		// not tracked in ep.ops (it is not ours).
		ep.node.ComputeUnscaled(p, costGetServe)
		var srcData []byte
		if m.NBytes > 0 {
			srcData = ep.node.Mem.Slice(m.RAddr, m.NBytes)
		}
		op := ep.getBulkOp()
		op.id = m.Op
		op.bk = bkGet
		op.peer = src
		op.ch = chRep
		op.src = srcData
		op.daddr = m.LAddr
		op.total = m.NBytes
		op.h = HandlerID(m.H)
		op.arg = m.Args[0]
		tc := &ep.peer(src).tx[chRep]
		tc.q.Push(txOp{bulk: op})
	}
}

func (ep *Endpoint) runHandler(p *sim.Proc, h HandlerID, tok Token, args []uint32, tid int64) {
	if h == NoHandler {
		return
	}
	fn := ep.handlers[h]
	ep.node.ComputeUnscaled(p, costDispatch)
	ep.emit(trace.EvHandlerStart, tid, int64(h), "")
	wasIn := ep.inHandler
	ep.inHandler = true
	fn(p, ep, tok, args)
	ep.inHandler = wasIn
	ep.emit(trace.EvHandlerEnd, tid, int64(h), "")
}

func (ep *Endpoint) runBulkHandler(p *sim.Proc, h HandlerID, tok Token, addr hw.Addr, n int, arg uint32, tid int64) {
	fn := ep.bulkHandlers[h]
	ep.node.ComputeUnscaled(p, costDispatch)
	ep.emit(trace.EvHandlerStart, tid, int64(h), "bulk")
	wasIn := ep.inHandler
	ep.inHandler = true
	fn(p, ep, tok, addr, n, arg)
	ep.inHandler = wasIn
	ep.emit(trace.EvHandlerEnd, tid, int64(h), "bulk")
}

// explicitAcks emits explicit acknowledgements where piggybacking did not
// happen: after each completed chunk, and whenever a quarter of the window
// of received packets is still unacknowledged (paper §2.2).
// explicitAcks covers the self-channel too: loopback packets carry real
// sequence numbers, and without acks a node's stores to itself pin their
// bulk ops (and under fault injection a dropped loopback packet could
// never be retransmitted).
func (ep *Endpoint) explicitAcks(p *sim.Proc) {
	for id, ps := range ep.peers {
		if ps.deathErr != nil {
			continue
		}
		if ep.ackDue(ps) {
			ep.sendCtrl(p, id, kAck, 0, chReq)
		}
	}
}

// ackDue reports whether ps is owed an explicit acknowledgement.
func (ep *Endpoint) ackDue(ps *peerState) bool {
	return ps.forceAck ||
		ps.rx[chReq].unackedPkts >= ep.sys.Opt.WndRequest/4 ||
		ps.rx[chRep].unackedPkts >= ep.sys.Opt.WndReply/4
}

// probeShift is the backoff exponent of ps's current keep-alive round,
// min(probeRounds, BackoffCap): the round fires once the empty-poll streak
// reaches KeepAlivePolls << probeShift.
func (ep *Endpoint) probeShift(ps *peerState) uint {
	return uint(min(ps.probeRounds, ep.sys.Opt.BackoffCap))
}

// keepAlive sends a probe to any peer with long-unacknowledged traffic; the
// probe elicits an explicit ack, and an ack that fails to cover our saved
// packets triggers retransmission (paper §2.2's keep-alive protocol).
//
// Successive probe rounds with no cumulative-ack progress back off
// exponentially: round r waits KeepAlivePolls << min(r, BackoffCap) empty
// polls and, past round 0, at least the RTT-derived RTO (also shifted by
// the round). Round 0 behaves exactly like the paper's fixed-threshold
// probe, so lossless runs are untouched. A peer that stays silent through
// DeathThreshold rounds is declared fail-stopped.
func (ep *Endpoint) keepAlive(p *sim.Proc) {
	o := ep.sys.Opt
	for id, ps := range ep.peers {
		if ps.deathErr != nil {
			continue
		}
		if ps.tx[chReq].saved.Len() == 0 && ps.tx[chRep].saved.Len() == 0 {
			ps.emptyStreak = 0
			ps.probeRounds = 0
			ps.nextProbeAt = 0
			continue
		}
		ps.emptyStreak++
		r := ep.probeShift(ps)
		if ps.emptyStreak < o.KeepAlivePolls<<r {
			continue
		}
		if r > 0 && ep.node.Eng.Now() < ps.nextProbeAt {
			continue
		}
		if ps.probeRounds >= o.DeathThreshold {
			ep.declarePeerDead(p, id, ps)
			continue
		}
		ps.emptyStreak = 0
		ps.probed = true
		if ps.probeRounds > 0 {
			ep.Stats.Backoffs++
		}
		ps.probeRounds++
		ps.nextProbeAt = ep.node.Eng.Now() + ep.rto(ps)<<r
		ep.sendCtrl(p, id, kProbe, 0, chReq)
	}
}
