package am

import (
	"spam/internal/hw"
	"spam/internal/sim"
)

// RawSend transmits a protocol-less packet: no sequence number, no
// acknowledgement, no retransmit copy. It exists only to reproduce the
// paper's "raw message (no data or sequence number) ping-pong latency"
// baseline that SP AM's 4 µs of protocol overhead is measured against
// (§2.3). It spins for FIFO space if necessary.
func (ep *Endpoint) RawSend(p *sim.Proc, dst int, nbytes int) {
	ad := ep.node.Adapter
	for ad.SendSpace() == 0 {
		ep.Poll(p)
	}
	wire := hw.PacketHeaderSize + nbytes
	m := msg{Kind: kRaw}
	ep.node.ChargeSend(p, costRawSend, 0, wire)
	ep.push(dst, &m, make([]byte, nbytes), wire) // a zero payload
	ad.CommitLengths(p)
}

// RawRecv returns the next raw packet delivered by Poll, or nil. The
// packet is the caller's; it is not returned to the pool.
func (ep *Endpoint) RawRecv() *hw.Packet {
	if ep.rawQ.Len() == 0 {
		return nil
	}
	return ep.rawQ.Pop()
}
