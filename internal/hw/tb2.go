package hw

import (
	"spam/internal/ring"
	"spam/internal/sim"
	"spam/internal/trace"
)

// TB2 models the SP's communication adapter: an i860 with 8 MB of DRAM that
// watches a packet-length array, DMAs committed send-FIFO entries across the
// MicroChannel into the fabric, and DMAs arriving packets into the host
// receive FIFO. One user process per node gets direct, OS-bypass access to
// the FIFOs (paper §2.1).
//
// The adapter owns the host side of its FIFOs: it builds send entries from
// the node's packet pool, stages them, commits them through the length
// array (charging the MicroChannel store) and pops the receive FIFO. The
// protocol layers (internal/am, internal/mpl) charge their own CPU costs
// (building entries, cache flushes) and choose when to commit; the adapter
// charges the i860 and DMA pipeline times.
//
// Packets move between pipeline stages through rings whose completion
// callbacks are allocated once at construction: each sim.Server fires
// completions in submission order, so a stage's callback always finds its
// packet at the head of the stage's ring.
type TB2 struct {
	node *Node
	sw   *Switch
	p    AdapterParams

	// Send side. staged holds entries the host has written but not yet
	// committed via the length array; sendUsed counts all occupied entries
	// (staged + committed-but-not-yet-DMA'd). Committed batches wait out
	// the firmware pickup latency in pickupQ (batch sizes in batchQ), then
	// flow through the i860 and outbound-DMA stages.
	staged   ring.Ring[*Packet]
	pickupQ  ring.Ring[*Packet]
	batchQ   ring.Ring[int]
	i860Q    ring.Ring[*Packet]
	dmaOutQ  ring.Ring[*Packet]
	sendUsed int
	i860Send *sim.Server
	dmaOut   *sim.Server

	// Receive side: the host-visible receive FIFO plus its feeding pipeline.
	i860Recv *sim.Server
	dmaIn    *sim.Server
	rxProcQ  ring.Ring[*Packet]
	dmaInQ   ring.Ring[*Packet]
	recvQ    ring.Ring[*Packet]
	recvCap  int

	pickupCB, i860CB, dmaOutCB, rxProcCB, dmaInCB func()

	// DroppedOverflow counts packets lost to receive-FIFO overflow — the
	// only loss mode of the (effectively lossless) SP switch, and the reason
	// the paper's flow control exists.
	DroppedOverflow int64
	// Delivered counts packets placed into the receive FIFO.
	Delivered int64

	// onArrive, when set, runs after each packet lands in the receive FIFO.
	// The protocol layer uses it to wake a node that has drained and stopped
	// polling: arrivals are the only stimulus such a node ever needs, since
	// any peer with work in flight keeps polling (and retransmitting) on its
	// own. The hook runs on the node's engine, inside the delivery event.
	onArrive func()
}

func newTB2(n *Node, sw *Switch, p AdapterParams, activeNodes int) *TB2 {
	a := &TB2{
		node:     n,
		sw:       sw,
		p:        p,
		i860Send: sim.NewServer(n.Eng),
		dmaOut:   sim.NewServer(n.Eng),
		i860Recv: sim.NewServer(n.Eng),
		dmaIn:    sim.NewServer(n.Eng),
		recvCap:  RecvFIFOPerNode * activeNodes,
	}
	a.pickupCB = a.pickup
	a.i860CB = a.i860Done
	a.dmaOutCB = a.dmaOutDone
	a.rxProcCB = a.rxProcDone
	a.dmaInCB = a.dmaInDone
	sw.Attach(n.ID, a.deliver)
	return a
}

// Params returns the adapter timing parameters.
func (a *TB2) Params() AdapterParams { return a.p }

// SendSpace reports free send-FIFO entries.
func (a *TB2) SendSpace() int { return SendFIFOEntries - a.sendUsed }

// PushSend builds one packet from the node's pool — hdrBytes of header hdr
// followed by data, bound for dst — and stores it into the next send-FIFO
// entry. data is copied into the packet's own entry (the copy the caller
// charges, with its build and flush, through Node.ChargeSend), so the
// caller's buffer is free once PushSend returns. The caller must have
// verified SendSpace() > 0; the entry does not move until a commit makes
// its length slot nonzero. A packet larger than the entry panics.
func (a *TB2) PushSend(dst, hdrBytes int, hdr *Header, data []byte) {
	if a.sendUsed >= SendFIFOEntries {
		panic("hw: send FIFO overflow (caller must check SendSpace)")
	}
	if hdrBytes+len(data) > FIFOEntryBytes {
		panic("hw: packet exceeds FIFO entry size")
	}
	pkt := a.node.Pool.Get()
	pkt.Src = a.node.ID
	pkt.Dst = dst
	pkt.HdrBytes = hdrBytes
	pkt.dataLen = copy(pkt.entry[:], data)
	pkt.Hdr = *hdr
	a.sendUsed++
	a.staged.Push(pkt)
	if rec := a.node.Eng.Tracer(); rec != nil {
		pkt.TraceID = rec.NewPacketID()
		rec.Emit(int64(a.node.Eng.Now()), trace.EvStaged, a.node.ID,
			pkt.TraceID, int64(pkt.WireBytes()), pkt.Class())
	}
}

// Staged reports send-FIFO entries written but not yet committed.
func (a *TB2) Staged() int { return a.staged.Len() }

// CommitFullBatch commits the staged entries once CommitBatch of them are
// waiting, and otherwise does nothing.
func (a *TB2) CommitFullBatch(p *sim.Proc) {
	if a.staged.Len() >= CommitBatch {
		a.CommitLengths(p)
	}
}

// CommitLengths writes the length-array slots for all staged entries in one
// programmed-I/O access across the MicroChannel (the paper's batching
// optimization: "writing the lengths of several packets at a time") and
// starts the adapter pipeline on them. It charges the calling process the
// MicroChannel access cost, and nothing when no entry is staged.
func (a *TB2) CommitLengths(p *sim.Proc) {
	if a.staged.Len() == 0 {
		return
	}
	p.Advance(a.p.MCAccess)
	a.commit()
}

func (a *TB2) commit() {
	n := a.staged.Len()
	rec := a.node.Eng.Tracer()
	now := int64(a.node.Eng.Now())
	for i := 0; i < n; i++ {
		pkt := a.staged.Pop()
		a.pickupQ.Push(pkt)
		if rec != nil && pkt.TraceID != 0 {
			rec.Emit(now, trace.EvCommitted, a.node.ID, pkt.TraceID, 0, "")
		}
	}
	a.batchQ.Push(n)
	// The pickup latency delays the whole batch equally (the firmware's
	// length-array scan), so FIFO order is preserved — and so is batch
	// order: pickups are scheduled at the constant latency from strictly
	// advancing commit times.
	a.node.Eng.After(a.p.PickupLatency, a.pickupCB)
}

// pickup fires when the firmware notices a committed batch: every packet of
// the batch enters the i860 send-processing stage.
func (a *TB2) pickup() {
	rec := a.node.Eng.Tracer()
	n := a.batchQ.Pop()
	for i := 0; i < n; i++ {
		pkt := a.pickupQ.Pop()
		a.i860Q.Push(pkt)
		sta := a.i860Send.IdleAt()
		end := a.i860Send.Submit(a.p.SendProc, a.i860CB)
		if rec != nil && pkt.TraceID != 0 {
			rec.Emit(int64(sta), trace.EvI860SendSta, a.node.ID, pkt.TraceID, 0, "")
			rec.Emit(int64(end), trace.EvI860SendEnd, a.node.ID, pkt.TraceID, 0, "")
		}
	}
}

func (a *TB2) i860Done() {
	pkt := a.i860Q.Pop()
	a.dmaOutQ.Push(pkt)
	dsta := a.dmaOut.IdleAt()
	dend := a.dmaOut.Submit(a.mcTime(pkt.WireBytes()), a.dmaOutCB)
	if rec := a.node.Eng.Tracer(); rec != nil && pkt.TraceID != 0 {
		rec.Emit(int64(dsta), trace.EvDMAOutSta, a.node.ID, pkt.TraceID, 0, "")
		rec.Emit(int64(dend), trace.EvDMAOutEnd, a.node.ID, pkt.TraceID, 0, "")
	}
}

func (a *TB2) dmaOutDone() {
	pkt := a.dmaOutQ.Pop()
	a.sendUsed--
	a.sw.Send(pkt)
}

func (a *TB2) mcTime(bytes int) sim.Time {
	return sim.Time(float64(bytes) / a.p.MicroChannelBPS * 1e9)
}

// deliver is the ejection-port callback: the i860 accepts the packet and
// DMAs it into the host receive FIFO, dropping it if the FIFO is full.
func (a *TB2) deliver(pkt *Packet) {
	a.rxProcQ.Push(pkt)
	sta := a.i860Recv.IdleAt()
	end := a.i860Recv.Submit(a.p.RecvProc, a.rxProcCB)
	if rec := a.node.Eng.Tracer(); rec != nil && pkt.TraceID != 0 {
		rec.Emit(int64(sta), trace.EvI860RecvSta, a.node.ID, pkt.TraceID, 0, "")
		rec.Emit(int64(end), trace.EvI860RecvEnd, a.node.ID, pkt.TraceID, 0, "")
	}
}

func (a *TB2) rxProcDone() {
	pkt := a.rxProcQ.Pop()
	a.dmaInQ.Push(pkt)
	dsta := a.dmaIn.IdleAt()
	dend := a.dmaIn.Submit(a.mcTime(pkt.WireBytes()), a.dmaInCB)
	if rec := a.node.Eng.Tracer(); rec != nil && pkt.TraceID != 0 {
		rec.Emit(int64(dsta), trace.EvDMAInSta, a.node.ID, pkt.TraceID, 0, "")
		rec.Emit(int64(dend), trace.EvDMAInEnd, a.node.ID, pkt.TraceID, 0, "")
	}
}

func (a *TB2) dmaInDone() {
	pkt := a.dmaInQ.Pop()
	if a.node.Killed() {
		// Fail-stopped destination: the host will never service its FIFO
		// again, so the packet is gone. Not counting it as Delivered keeps
		// delivery progress a truthful liveness signal for the watchdog.
		a.node.Pool.Put(pkt)
		return
	}
	rec := a.node.Eng.Tracer()
	if a.recvQ.Len() >= a.recvCap {
		a.DroppedOverflow++
		if rec != nil && pkt.TraceID != 0 {
			rec.Emit(int64(a.node.Eng.Now()), trace.EvFIFODrop,
				a.node.ID, pkt.TraceID, 0, "")
		}
		a.node.Pool.Put(pkt)
		return
	}
	a.recvQ.Push(pkt)
	a.Delivered++
	if rec != nil && pkt.TraceID != 0 {
		rec.Emit(int64(a.node.Eng.Now()), trace.EvFIFOArrive,
			a.node.ID, pkt.TraceID, int64(a.recvQ.Len()), "")
	}
	if a.onArrive != nil {
		a.onArrive()
	}
}

// SetArrivalHook installs fn to run after every packet placed into the host
// receive FIFO (overflow drops do not fire it). Pass nil to clear.
func (a *TB2) SetArrivalHook(fn func()) { a.onArrive = fn }

// RecvLen reports how many packets sit in the host receive FIFO.
func (a *TB2) RecvLen() int { return a.recvQ.Len() }

// RecvPop removes and returns the FIFO head, or nil when the FIFO is empty.
// The polling layer charges its own per-poll and per-message costs. The
// paper pops lazily — after a fixed number of polled messages — to amortize
// the MicroChannel access that tells the adapter the entry is free; that
// batching (and its cost) is the caller's policy. The popped packet belongs
// to the caller, who returns it to the node's pool once processed.
func (a *TB2) RecvPop() *Packet {
	if a.recvQ.Len() == 0 {
		return nil
	}
	pkt := a.recvQ.Pop()
	if rec := a.node.Eng.Tracer(); rec != nil && pkt.TraceID != 0 {
		rec.Emit(int64(a.node.Eng.Now()), trace.EvPolled, a.node.ID, pkt.TraceID, 0, "")
	}
	return pkt
}
