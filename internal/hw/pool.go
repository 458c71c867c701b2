package hw

// PacketPool is a per-cluster free list of Packet structs and payload
// scratch buffers. The simulation engine runs one callback or process at a
// time, so the pool needs no synchronization (parallel sweeps build one
// cluster — and one pool — per worker).
//
// Ownership discipline:
//
//   - The adapter Gets a packet at injection (TB2.PushSend); from then on
//     the hardware pipeline owns it.
//   - The receiving protocol layer Puts the packet back after processing it
//     (copying any payload it keeps — Data may alias the sender's source
//     buffer, which go-back-N retransmission still needs).
//   - The switch Puts packets it consumes: drop verdicts and corrupt
//     verdicts with nothing to flip. The adapter Puts receive-FIFO
//     overflow drops.
//   - Corrupt verdicts that damage a payload copy it into a pooled scratch
//     buffer first (never mutating the original, which may back a
//     retransmission); the scratch travels with the packet (dataPooled)
//     and is recycled by the same Put that frees the packet.
//
// Packets that escape the simulation (raw-mode calibration packets handed
// to RawRecv callers, packets hardware tests retain) are simply never
// returned; the pool does not track outstanding packets.
type PacketPool struct {
	free []*Packet
	data [][]byte
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

// Put recycles p (and its pooled payload scratch, if any). The packet must
// not be referenced after Put; a double Put panics.
func (pp *PacketPool) Put(p *Packet) {
	if p.inPool {
		panic("hw: double Put of pooled packet")
	}
	if p.dataPooled {
		pp.putData(p.Data)
	}
	*p = Packet{inPool: true}
	pp.free = append(pp.free, p)
}

// GetData returns a pooled scratch buffer of length n (payload-sized
// capacity). Used by the corruption path so chaos runs stop allocating a
// fresh payload copy per corrupted packet.
func (pp *PacketPool) GetData(n int) []byte {
	if n > FIFOEntryBytes {
		return make([]byte, n) // unreachable: WireBytes caps packets at 256B
	}
	if m := len(pp.data); m > 0 {
		b := pp.data[m-1]
		pp.data[m-1] = nil
		pp.data = pp.data[:m-1]
		return b[:n]
	}
	return make([]byte, n, FIFOEntryBytes)
}

func (pp *PacketPool) putData(b []byte) {
	if cap(b) < FIFOEntryBytes {
		return // foreign buffer; let the GC have it
	}
	pp.data = append(pp.data, b[:0])
}
