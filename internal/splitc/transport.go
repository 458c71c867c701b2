// Package splitc implements the Split-C runtime of Section 3: a global
// address space with split-phase remote access, synchronization, and the
// one-way "store" operation, layered over an abstract Active-Message-style
// transport. The same runtime (and the same application benchmarks) runs
// over SP AM, over IBM MPL (the paper's MPL port of Split-C), and over the
// parameterized Table-4 machines (CM-5, Meiko CS-2, U-Net/ATM), which is
// exactly how the paper's cross-machine comparison is constructed.
//
// The split is this. The runtime (RT) owns everything the machines share:
// the rank, the node count, the node's global segment, the tally of store
// bytes landed, the count of gets outstanding, the global-pointer check and
// the control-message dispatch. A Transport only moves bytes between
// segments and charges its machine's costs; it hands each arrival to the
// RT it serves through RT.Control, RT.GetDone and RT.Landed.
package splitc

import "spam/internal/sim"

// Transport is the communication substrate one Split-C process runs on.
// Addresses are byte offsets into each node's global segment.
type Transport interface {
	// Poll services the network, handing arrivals to the runtime.
	Poll(p *sim.Proc)

	// PollWait polls at least once and returns when a poll may have
	// changed what the runtime waits on (an arrival, Err). It is for loops
	// blocked on exactly that; a transport with no cheaper way to sit out
	// idle polls implements it as Poll.
	PollWait(p *sim.Proc)

	// Ctl sends a small one-way control message (two 64-bit words) used by
	// the runtime for barriers and reductions; it reaches the receiver's
	// RT.Control during the receiver's Poll.
	Ctl(p *sim.Proc, dst int, a, b uint64)

	// Get reads n bytes from dst's segment at roff into this node's
	// segment at loff, then calls RT.GetDone here.
	Get(p *sim.Proc, dst, roff, loff, n int)

	// Store writes data to dst's segment at roff with no sender-side
	// completion; the receiver's RT.Landed runs when the data lands
	// (Split-C's one-way store, synchronized globally by all_store_sync).
	Store(p *sim.Proc, dst, roff int, data []byte)

	// Compute charges local computation time, scaled to this machine's
	// CPU speed relative to the SP's POWER2.
	Compute(p *sim.Proc, d sim.Time)

	// Err reports a permanent transport failure (a peer declared dead by
	// the reliability layer), or nil. Once non-nil it never clears; the
	// runtime's blocking operations return it instead of spinning.
	Err() error
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
// node, in rank order. SPAMPlatform, MPLPlatform and gam.Machine embed it.
type Runtimes []*RT

// N reports the processor count.
func (rs Runtimes) N() int { return len(rs) }
