package hw

// PacketPool is a per-cluster free list of Packet structs. The simulation
// engine runs one callback or process at a time, so the pool needs no
// synchronization (parallel sweeps build one cluster — and one pool — per
// worker).
//
// Ownership discipline:
//
//   - The adapter Gets a packet at injection (TB2.PushSend), copying the
//     payload into the packet's entry; from then on the hardware pipeline
//     owns it, and the sender's buffer is free.
//   - The receiving protocol layer Puts the packet back after processing it
//     (copying out any payload it keeps: Data is the packet's own entry).
//   - The switch Puts packets it consumes: drop verdicts and corrupt
//     verdicts with nothing to flip. The adapter Puts receive-FIFO
//     overflow drops.
//
// Packets that escape the simulation (raw-mode calibration packets handed
// to RawRecv callers, packets hardware tests retain) are simply never
// returned; the pool does not track outstanding packets.
type PacketPool struct {
	free []*Packet
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed packet.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		p.inPool = false
		return p
	}
	return &Packet{}
}

// Put recycles p. The packet must not be referenced after Put; a double
// Put panics.
func (pp *PacketPool) Put(p *Packet) {
	if p.inPool {
		panic("hw: double Put of pooled packet")
	}
	*p = Packet{inPool: true}
	pp.free = append(pp.free, p)
}
