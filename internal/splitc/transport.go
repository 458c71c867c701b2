// Package splitc implements the Split-C runtime of Section 3: a global
// address space with split-phase remote access, synchronization, and the
// one-way "store" operation, layered over an abstract Active-Message-style
// transport. The same runtime (and the same application benchmarks) runs
// over SP AM, over IBM MPL (the paper's MPL port of Split-C), and over the
// parameterized Table-4 machines (CM-5, Meiko CS-2, U-Net/ATM), which is
// exactly how the paper's cross-machine comparison is constructed.
package splitc

import "spam/internal/sim"

// Transport is the communication substrate one Split-C process runs on.
// Addresses are byte offsets into each node's registered global segment.
type Transport interface {
	// ID is this node's rank; N is the number of nodes.
	ID() int
	N() int

	// LocalMem returns this node's global-segment memory.
	LocalMem() []byte

	// Poll services the network, invoking completion callbacks and the
	// control handler.
	Poll(p *sim.Proc)

	// PollWait polls at least once and returns when a poll may have
	// changed what the runtime waits on (a callback, the control handler,
	// Err). It is for loops blocked on exactly that; a transport with no
	// cheaper way to sit out idle polls implements it as Poll.
	PollWait(p *sim.Proc)

	// Ctl sends a small one-way control message (two 64-bit words) used by
	// the runtime for barriers and reductions; the receiver's installed
	// handler runs during its Poll.
	Ctl(p *sim.Proc, dst int, a, b uint64)

	// SetCtlHandler installs the runtime's control-message dispatcher.
	// Must be called before any traffic.
	SetCtlHandler(fn func(p *sim.Proc, src int, a, b uint64))

	// Get reads n bytes from dst's segment at roff into this node's
	// segment at loff; onDone runs when the data has arrived.
	Get(p *sim.Proc, dst, roff, loff, n int, onDone func())

	// Store writes data to dst's segment at roff with no sender-side
	// completion; the receiver's StoredBytes counter advances when the
	// data lands (Split-C's one-way store, synchronized globally by
	// all_store_sync).
	Store(p *sim.Proc, dst, roff int, data []byte)

	// StoredBytes reports how many store payload bytes have landed here.
	StoredBytes() int64

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
	// Name identifies the machine for result tables.
	Name() string
	// Run executes program on every node and drives the simulation to
	// completion, returning the final virtual time.
	Run(program func(p *sim.Proc, rt *RT)) sim.Time
}

// Callbacks holds the completion callbacks of a transport's in-flight
// split-phase operations. The index Add returns rides in the message (the AM
// handler argument word, an MPL header field, a LogGP message field) and
// comes back with the completion, which fires the callback and frees the
// slot. Freed slots are reused last-in first-out.
type Callbacks struct {
	cbs  []func()
	free []uint32
}

// Add stores fn in a free slot and returns its index.
func (t *Callbacks) Add(fn func()) uint32 {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		t.cbs[idx] = fn
		return idx
	}
	t.cbs = append(t.cbs, fn)
	return uint32(len(t.cbs) - 1)
}

// Fire frees slot idx and runs the callback it held.
func (t *Callbacks) Fire(idx uint32) {
	fn := t.cbs[idx]
	t.cbs[idx] = nil
	t.free = append(t.free, idx)
	fn()
}
