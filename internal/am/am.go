// Package am implements SP Active Messages (SP AM), the paper's primary
// contribution: a Generic-Active-Messages-1.1 communication layer built
// directly on the TB2 adapter model with no operating-system involvement.
//
// Messages are requests and matching replies carrying a handler id and up
// to four 32-bit words; bulk transfers (Store, StoreAsync, Get) move blocks
// of memory named by the initiating node and invoke a handler when the
// transfer completes. Delivery is reliable and ordered: sequence numbers
// and a sliding window (72 packets for requests, 76 for replies) detect
// losses, negative acknowledgements trigger go-back-N retransmission,
// acks are piggybacked whenever possible, bulk data travels in 8064-byte
// chunks acknowledged once per chunk, and a keep-alive probe recovers from
// ack starvation. See paper §2.
//
// The steady-state packet path performs no heap allocations: headers are
// carried by value, packets and bulk-operation records come from free
// lists, and every protocol queue is a ring buffer.
package am

import (
	"fmt"

	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
)

// HandlerID names a registered handler. Handler tables must be identical on
// every node (SPMD registration order), as with handler addresses in GAM.
type HandlerID int

// Token identifies the request being handled; a request handler may use it
// to issue exactly one reply.
type Token struct {
	Src      int // requesting node
	mayReply bool
}

// Handler is a short-message handler, invoked during Poll on the receiving
// node with up to four words of arguments.
type Handler func(p *sim.Proc, ep *Endpoint, tok Token, args []uint32)

// BulkHandler is invoked when a Store's data has fully arrived (on the
// destination) or a Get's data has fully arrived (on the initiator).
type BulkHandler func(p *sim.Proc, ep *Endpoint, tok Token, addr hw.Addr, nbytes int, arg uint32)

// CompletionFunc runs on the sending side when a StoreAsync's source memory
// is reusable (its final chunk has been acknowledged).
type CompletionFunc func(p *sim.Proc, ep *Endpoint)

// NoHandler suppresses the completion-side handler of a bulk operation.
const NoHandler HandlerID = -1

// Stats counts protocol events on one endpoint. It is the only declaration
// of an AM count: Totals folds the endpoints with trace.Fold, and a system
// with a registry publishes the tagged fields under their tags once its
// cluster's run is over (EnableMetrics).
type Stats struct {
	PacketsSent     int64
	PacketsReceived int64
	Retransmits     int64 `metric:"am.retransmits"`
	NacksSent       int64 `metric:"am.nacks_sent"`
	AcksSent        int64 `metric:"am.acks_sent"`
	Probes          int64 `metric:"am.probes_sent"`
	Polls           int64 `metric:"am.polls"`
	EmptyPolls      int64 `metric:"am.polls_empty"`
	Duplicates      int64
	// CorruptDropped counts received packets discarded for a wire-checksum
	// mismatch (injected corruption); the data is recovered by
	// retransmission like any other loss.
	CorruptDropped int64 `metric:"am.corrupt_dropped"`
	// RTTSamples counts Karn-valid round-trip samples folded into the
	// Jacobson RTO estimators.
	RTTSamples int64
	// Backoffs counts keep-alive probe rounds beyond the first (each paid an
	// exponentially grown empty-poll threshold and RTO wait).
	Backoffs int64 `metric:"am.backoffs"`
	// DeadPeers counts fail-stop declarations this endpoint made.
	DeadPeers int64 `metric:"am.peer_deaths"`
}

// System is the AM layer instantiated across a cluster: one Endpoint per
// node, all sharing handler-table layout and options.
type System struct {
	Cluster *hw.Cluster
	EPs     []*Endpoint
	Opt     Options

	// met holds the cached metric handles when EnableMetrics was called
	// (nil = metrics off, free).
	met *sysMetrics
}

// New builds the AM layer on c with the paper's default options.
func New(c *hw.Cluster) *System { return NewWithOptions(c, DefaultOptions()) }

// NewWithOptions builds the AM layer with explicit protocol options.
func NewWithOptions(c *hw.Cluster, opt Options) *System {
	s := &System{Cluster: c, Opt: opt}
	for _, n := range c.Nodes {
		ep := &Endpoint{sys: s, node: n, n: len(c.Nodes)}
		ep.idleStepFn = ep.idleStep
		ep.peers = make([]*peerState, len(c.Nodes))
		for i := range ep.peers {
			ep.peers[i] = newPeerState(opt)
		}
		s.EPs = append(s.EPs, ep)
	}
	c.AddDiagnostic(s.diagnose)
	return s
}

// Register installs h in every endpoint's handler table and returns its id.
// Registration must happen before the simulation starts.
func (s *System) Register(h Handler) HandlerID {
	id := HandlerID(len(s.EPs[0].handlers))
	for _, ep := range s.EPs {
		ep.handlers = append(ep.handlers, h)
	}
	return id
}

// RegisterBulk installs a bulk-completion handler on every endpoint.
func (s *System) RegisterBulk(h BulkHandler) HandlerID {
	id := HandlerID(len(s.EPs[0].bulkHandlers))
	for _, ep := range s.EPs {
		ep.bulkHandlers = append(ep.bulkHandlers, h)
	}
	return id
}

// Endpoint is one node's attachment to the AM layer. All methods taking a
// *sim.Proc must be called from that node's program process.
type Endpoint struct {
	sys  *System
	node *hw.Node
	n    int

	handlers     []Handler
	bulkHandlers []BulkHandler

	peers []*peerState

	inHandler bool // restricts handlers to replies (GAM rule)

	nextOp     uint64
	ops        map[uint64]*bulkOp    // in-flight ops this endpoint initiated
	bulkFree   []*bulkOp             // bulkOp free list (recycled at completion)
	rawQ       ring.Ring[*hw.Packet] // raw-mode receive queue (calibration only)
	popCount   int                   // pops since start (lazy-pop batching)
	drainArmed bool                  // Drain has installed the arrival hook
	drainBusy  bool                  // a post-drain service proc is running

	// PollWait state (see idleStep): the bookkeeping-only polls still allowed,
	// the polls finished inline so far, and the caller's deadline. The step
	// func value is made once here so a wait allocates nothing.
	idleLeft, idleRan int
	idleUntil         sim.Time
	idleStepFn        func() bool

	// errHandler, when set, is invoked once per peer declared dead (see
	// SetErrorHandler).
	errHandler ErrorHandler

	Stats Stats
	// Data is application-owned context (runtimes hang their state here).
	Data interface{}
}

// Node returns the underlying hardware node.
func (ep *Endpoint) Node() *hw.Node { return ep.node }

// ID returns this endpoint's node id.
func (ep *Endpoint) ID() int { return ep.node.ID }

// N returns the number of nodes in the system.
func (ep *Endpoint) N() int { return ep.n }

func (ep *Endpoint) peer(id int) *peerState {
	if id < 0 || id >= len(ep.peers) {
		panic(fmt.Sprintf("am: bad node id %d", id))
	}
	return ep.peers[id]
}

// getBulkOp takes a bulk-operation record from the free list (or allocates
// one) and bumps its generation. The generation lets a blocking Store/Get
// detect that its op completed and was recycled while it polled: a waiter
// captures the generation at creation and treats any change as completion.
func (ep *Endpoint) getBulkOp() *bulkOp {
	var op *bulkOp
	if n := len(ep.bulkFree); n > 0 {
		op = ep.bulkFree[n-1]
		ep.bulkFree[n-1] = nil
		ep.bulkFree = ep.bulkFree[:n-1]
	} else {
		op = &bulkOp{}
	}
	g := op.gen
	*op = bulkOp{gen: g + 1}
	return op
}

// putBulkOp recycles a completed op. Callers must have removed it from
// ep.ops first; waiters notice the recycled generation.
func (ep *Endpoint) putBulkOp(op *bulkOp) {
	ep.bulkFree = append(ep.bulkFree, op)
}

// ChannelDebug is a diagnostic snapshot of one sequence channel to a peer.
type ChannelDebug struct {
	NextSeq, AckedSeq uint64
	Window            int
	Queued            int // operations not yet injected
	Saved             int // unacknowledged packets
	Retx              int // retransmissions pending injection
	WaitAck           int // bulk ops awaiting final ack
	RxExpect          uint64
	RxUnacked         int
}

// DebugChannel snapshots the protocol state toward peer on channel ch
// (0 = requests, 1 = replies). Diagnostics only.
func (ep *Endpoint) DebugChannel(peer, ch int) ChannelDebug {
	ps := ep.peer(peer)
	tc := &ps.tx[ch]
	rc := &ps.rx[ch]
	return ChannelDebug{
		NextSeq: tc.nextSeq, AckedSeq: tc.ackedSeq, Window: tc.wnd,
		Queued: tc.q.Len(), Saved: tc.saved.Len(), Retx: tc.retx.Len(),
		WaitAck: tc.waitAck.Len(), RxExpect: rc.expect, RxUnacked: rc.unackedPkts,
	}
}

// peerState is all protocol state one endpoint keeps about one peer.
type peerState struct {
	tx [2]txChan
	rx [2]rxChan

	// Keep-alive bookkeeping.
	emptyStreak int
	probed      bool // a probe is outstanding; next ack may imply a nack

	// forceAck requests an explicit ack be emitted at the next opportunity
	// (chunk completion or ack-threshold crossing).
	forceAck bool

	// RTT estimation (Jacobson mean/variance over Karn-valid samples; srtt
	// of 0 means no sample yet) and the adaptive probe-round state. Probe
	// rounds grow the keep-alive threshold and the RTO wait exponentially
	// until cumulative-ack progress resets them; past the death threshold
	// the peer is declared fail-stopped.
	srtt, rttvar sim.Time
	probeRounds  int
	nextProbeAt  sim.Time // earliest time a round > 0 probe may fire
	deathErr     *PeerDeathError
}

func newPeerState(opt Options) *peerState {
	ps := &peerState{}
	ps.tx[chReq].wnd = opt.WndRequest
	ps.tx[chRep].wnd = opt.WndReply
	ps.rx[chReq].lastNacked = ^uint64(0)
	ps.rx[chRep].lastNacked = ^uint64(0)
	return ps
}

// txChan is the sending half of one sequence channel to one peer. All four
// queues are ring buffers: pops are O(1) and never retain popped entries.
type txChan struct {
	nextSeq  uint64 // next sequence unit to assign
	ackedSeq uint64 // all units below this are acknowledged
	wnd      int

	q       ring.Ring[txOp]     // operations not yet fully injected
	saved   ring.Ring[savedPkt] // injected but unacknowledged packets
	retx    ring.Ring[savedPkt] // packets awaiting retransmission injection
	waitAck ring.Ring[*bulkOp]  // fully injected bulk ops awaiting final ack (FIFO)

	lastNackRetx uint64 // last nack sequence acted on (dedup)
	hasNackRetx  bool

	// One in-flight RTT sample (Karn's rule: a retransmission covering the
	// timed sequence invalidates the sample; only packets acknowledged
	// after a loss-free flight feed the estimator).
	rttSeq   uint64
	rttAt    sim.Time
	rttValid bool
}

// inFlight reports occupied window units.
func (tc *txChan) inFlight() uint64 { return tc.nextSeq - tc.ackedSeq }

// savedPkt retains what is needed to retransmit one packet.
type savedPkt struct {
	m    msg
	data []byte // reference into the op's source (still pinned: op unacked)
}

// rxChan is the receiving half of one sequence channel from one peer. The
// in-progress chunk reassembly state is inlined (one chunk can be arriving
// at a time — chunks are in-order) with a reusable arrival bitmap.
type rxChan struct {
	expect      uint64 // next expected sequence unit (== cumulative ack value)
	unackedPkts int    // received since we last acked in any way
	lastNacked  uint64 // dedup: expect value we already nacked
	badSince    int    // out-of-order arrivals since the last nack

	chunkActive bool
	chunkSeq    uint64
	chunkNeed   int
	chunkCount  int
	chunkGot    []bool // reused across chunks; grown once
}

// startChunk resets the reassembly state for the chunk at seq.
func (rc *rxChan) startChunk(seq uint64, pkts int) {
	rc.chunkActive = true
	rc.chunkSeq = seq
	rc.chunkNeed = pkts
	rc.chunkCount = 0
	if cap(rc.chunkGot) < pkts {
		rc.chunkGot = make([]bool, pkts)
	} else {
		rc.chunkGot = rc.chunkGot[:pkts]
		for i := range rc.chunkGot {
			rc.chunkGot[i] = false
		}
	}
}

// nackRefresh re-sends a NACK after this many further out-of-order arrivals
// for the same expected sequence: the first NACK (or the go-back-N burst it
// triggered) may itself have been lost to FIFO overflow, and without a
// refresh the flow wedges while unrelated chatter keeps the keep-alive
// timer from ever firing.
const nackRefresh = 64

// txOp is a queued send operation: a short message or a bulk transfer. It
// is stored by value in the per-channel queue ring; whether a queued short
// has been injected is tracked by the ring's monotone pop counter (shorts
// are popped exactly when injected), so no flag or heap box is needed.
type txOp struct {
	m       msg  // the short message (isShort)
	isShort bool // short message vs bulk stream

	bulk *bulkOp // non-nil for store/get-data streams

	shortBuild sim.Time // host build cost to charge at injection
}

// bulkOp tracks a bulk transfer from the sending side (store or get-data)
// and, for gets, from the initiating side. Records are recycled through the
// endpoint's free list when the op completes; gen disambiguates reuse for
// blocked waiters.
type bulkOp struct {
	gen      uint64 // bumped on every allocation from the free list
	id       uint64
	bk       uint8
	peer     int // remote party of the op
	ch       int
	src      []byte  // data source (sender side)
	daddr    hw.Addr // destination base address
	total    int
	h        HandlerID // destination-side handler (store) / initiator handler (get)
	arg      uint32
	sent     int // bytes whose packets have been injected
	injected bool
	lastSeq  uint64 // seq of final chunk (valid once fully injected)
	span     uint64 // final chunk's span

	// Sender-side completion (store): final chunk acked.
	acked      bool
	onComplete CompletionFunc

	// Initiator-side completion (get): all data arrived.
	done bool

	// failed marks an op abandoned because its peer was declared dead.
	// Failed records are never recycled (their generation stays put), so a
	// blocked waiter reads the flag race-free and the error sticks.
	failed bool
}
