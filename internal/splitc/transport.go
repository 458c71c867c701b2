// Package splitc implements the Split-C runtime of Section 3: a global
// address space with split-phase remote access, synchronization, and the
// one-way "store" operation, layered over an abstract Active-Message-style
// transport. The same runtime (and the same application benchmarks) runs
// over SP AM, over IBM MPL (the paper's MPL port of Split-C), and over the
// parameterized Table-4 machines (CM-5, Meiko CS-2, U-Net/ATM), which is
// exactly how the paper's cross-machine comparison is constructed.
//
// The split is this. The runtime (RT) owns everything the machines share:
// the rank, the node count, the node's global segment, the machine's CPU
// scale, the failure state, the tally of store bytes landed, the count of
// gets outstanding, the global-pointer check and the control-message
// dispatch. A Transport only moves messages and charges its machine's
// costs. SP AM runs the runtime's side of an arrival in its handlers; MPL
// and the Table-4 machines, which have none, carry one message protocol
// that RT.serve runs when the receiver polls.
package splitc

import "spam/internal/sim"

// Transport is the communication substrate one Split-C process runs on.
// Addresses are byte offsets into each node's global segment.
type Transport interface {
	// Poll services the network, handing arrivals to the runtime.
	Poll(p *sim.Proc)

	// PollWait polls at least once and returns when a poll may have
	// changed what the runtime waits on (an arrival, a failure). It is for
	// loops blocked on exactly that; a transport with no cheaper way to sit
	// out idle polls implements it as Poll.
	PollWait(p *sim.Proc)

	// Ctl sends a small one-way control message (two 64-bit words) used by
	// the runtime for barriers and reductions; it reaches the receiver's
	// runtime during the receiver's Poll.
	Ctl(p *sim.Proc, dst int, a, b uint64)

	// Get reads n bytes from dst's segment at roff into this node's
	// segment at loff, and counts the get done here when they land.
	Get(p *sim.Proc, dst, roff, loff, n int)

	// Store writes data to dst's segment at roff with no sender-side
	// completion; the receiver counts the bytes when they land (Split-C's
	// one-way store, synchronized globally by all_store_sync).
	Store(p *sim.Proc, dst, roff int, data []byte)
}

// Platform builds a cluster of transports and runs SPMD programs on it;
// each implementation fixes the machine (SP+AM, SP+MPL, or a Table-4
// parameterized machine).
type Platform interface {
	// N reports the number of processors.
	N() int
	// Run executes program on every node and drives the simulation to
	// completion, returning the final virtual time.
	Run(program func(p *sim.Proc, rt *RT)) sim.Time
}

// Runtimes is the part of a Platform every machine shares: one runtime per
// node, in rank order. SPAMPlatform, MPLPlatform and GAMPlatform embed it.
type Runtimes []*RT

// N reports the processor count.
func (rs Runtimes) N() int { return len(rs) }

// Kinds of message in the protocol of the handler-less networks.
const (
	msgCtl = iota + 1
	msgGet
	msgReply
	msgStore
)

// message is one message of the protocol MPL and the Table-4 machines
// carry: a control message (words a and b), a get request for n bytes at
// off whose reply lands at loff on src, or a get reply or a store of data
// (n bytes) to land at off.
type message struct {
	kind, src    int
	a, b         uint64
	off, loff, n int
	data         []byte
}

// serve runs one message on this node and returns the reply it calls for,
// a get request's, or the zero message. A reply's data is a view of the
// segment; the transport copies it as it sends.
func (rt *RT) serve(m message) message {
	switch m.kind {
	case msgCtl:
		rt.control(m.a, m.b)
	case msgGet:
		return message{kind: msgReply, off: m.loff, n: m.n, data: rt.mem[m.off : m.off+m.n]}
	case msgReply:
		copy(rt.mem[m.off:], m.data)
		rt.outstanding--
	case msgStore:
		copy(rt.mem[m.off:], m.data)
		rt.landed += int64(m.n)
	}
	return message{}
}

// quiesce is the end-of-run rule of the handler-less networks: a message
// lands only when its receiver polls, and MPL holds a send until its
// receiver, polling, returns a credit. So a rank whose program has
// returned polls until every program has returned and no message is in
// flight. The transports count inFlight: up when they send, down when
// they take.
type quiesce struct{ running, inFlight int }

// finish runs on a rank whose program has returned. The wait is on other
// processes, so it is plain Poll, not PollWait.
func (q *quiesce) finish(p *sim.Proc, rt *RT) {
	for q.running--; q.running > 0 || q.inFlight > 0; {
		rt.T.Poll(p)
	}
}
