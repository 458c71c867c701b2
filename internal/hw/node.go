package hw

import "spam/internal/sim"

// Node is one SP processing node: a cost model for the host CPU and memory
// system, a registered-memory table, and a TB2 adapter (attached by the
// Cluster).
type Node struct {
	ID      int
	Eng     *sim.Engine
	P       NodeParams
	Mem     *Memory
	Adapter *TB2
	// Pool is the cluster-wide packet free list; protocol layers Get
	// packets here at injection and Put received packets back after
	// processing them (see PacketPool for the ownership discipline).
	Pool *PacketPool

	// killAt, when nonzero, is the simulated time at or after which this
	// node is fail-stopped (Cluster.Kill). Kill state is a pure function of
	// time — no event is scheduled — so every layer that consults it sees
	// the same answer regardless of same-instant event ordering.
	killAt sim.Time
}

// Kill fail-stops this node at time at (0 disarms): from then on the node
// delivers no packets into its receive FIFO, injects nothing at the fabric,
// and its program process is expected to detach at its next network
// operation (the protocol layers check Killed and call Proc.Detach).
func (n *Node) Kill(at sim.Time) {
	if at <= 0 {
		n.killAt = 0
		return
	}
	n.killAt = at
}

// Killed reports whether the node is fail-stopped at the current time.
func (n *Node) Killed() bool {
	return n.killAt > 0 && n.Eng.Now() >= n.killAt
}

// KillTime returns the armed fail-stop time (0 = never).
func (n *Node) KillTime() sim.Time { return n.killAt }

// Compute charges d of computation, scaled by the node's CPU speed. This is
// how application kernels (sorts, FFTs, stencils) account for their local
// work.
func (n *Node) Compute(p *sim.Proc, d sim.Time) {
	p.Advance(sim.Time(float64(d) * n.P.CPUScale))
}

// ComputeUnscaled charges exactly d (used by protocol layers whose costs are
// calibrated directly rather than derived from CPU speed).
func (n *Node) ComputeUnscaled(p *sim.Proc, d sim.Time) {
	p.Advance(d)
}

// MemcpyCost returns the cost of copying nbytes through the cache.
func (n *Node) MemcpyCost(nbytes int) sim.Time {
	return sim.Time(nbytes) * n.P.MemcpyPerByte
}

// Memcpy charges a cached copy of nbytes.
func (n *Node) Memcpy(p *sim.Proc, nbytes int) {
	p.Advance(n.MemcpyCost(nbytes))
}

// FlushCost returns the cost of flushing nbytes worth of cache lines to
// memory (the RS/6000 I/O bus is not coherent, so the communication layer
// flushes every FIFO entry it touches — paper §2.1).
func (n *Node) FlushCost(nbytes int) sim.Time {
	lines := (nbytes + n.P.CacheLineBytes - 1) / n.P.CacheLineBytes
	if lines == 0 {
		lines = 1
	}
	return sim.Time(lines) * n.P.FlushPerLine
}

// ChargeSend charges a packet's host-side send — build, the payload's copy
// into the FIFO entry (none for a header-only packet) and the flush of its
// wire bytes — as one run of charges, one process wake-up
// (sim.Proc.AdvanceSeq).
func (n *Node) ChargeSend(p *sim.Proc, build sim.Time, payload, wire int) {
	if payload == 0 {
		p.AdvanceSeq(build, n.FlushCost(wire))
		return
	}
	p.AdvanceSeq(build, n.MemcpyCost(payload), n.FlushCost(wire))
}
