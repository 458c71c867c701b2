// Package hw models the IBM RISC System/6000 SP hardware that the paper's
// communication layers were built on: POWER2 nodes (thin and wide), the
// MicroChannel I/O bus, the TB2 communication adapter (i860 + MSMU, send and
// receive FIFOs, a packet-length array, and DMA engines), and the SP
// high-performance switch.
//
// The model is a calibrated discrete-event pipeline, not a cycle simulator:
// every stage charges a service time chosen so that the end-to-end figures
// of the paper (51 µs AM round-trip, 34.3 MB/s asymptotic bandwidth,
// FIFO-overflow-only packet loss, ...) are reproduced. All constants live in
// this file with provenance notes; calibration tests in internal/am pin the
// resulting end-to-end numbers.
package hw

import "spam/internal/sim"

// Virtual-time helpers. One sim.Time unit is a nanosecond.
const (
	Nanosecond  sim.Time = 1
	Microsecond sim.Time = 1000
	Millisecond sim.Time = 1000 * 1000
)

// US converts a floating-point number of microseconds to sim.Time.
func US(us float64) sim.Time { return sim.Time(us * 1000) }

// Packet-format constants (paper §2.1–2.2): each send-FIFO entry is 256
// bytes and corresponds to one switch packet; the AM layer uses 32 bytes of
// header, leaving 224 bytes of payload, so an 8064-byte chunk is exactly 36
// packets.
const (
	FIFOEntryBytes   = 256
	PacketHeaderSize = 32
	PacketDataSize   = FIFOEntryBytes - PacketHeaderSize // 224
	SendFIFOEntries  = 128                               // paper §2.1
	RecvFIFOPerNode  = 64                                // paper §2.1: 64 entries per active processing node
	// CommitBatch is how many staged send-FIFO entries one length-array
	// store commits in a full batch (TB2.CommitFullBatch). The host writes
	// "the lengths of several packets at a time" (paper §2.1) to pay one
	// MicroChannel access per batch; committing as packets are built, rather
	// than once per chunk, lets the adapter's DMA overlap the host's entry
	// building.
	CommitBatch = 8
)

// SwitchParams describes the SP high-performance switch (paper §1.2:
// ~500 ns hardware latency, links "close to 40 MBytes/s"). The paper's four
// routes per node pair are not modelled: contention is at the ports.
type SwitchParams struct {
	Latency sim.Time // fabric traversal latency
	LinkBPS float64  // per-port link bandwidth, bytes/second
}

// DefaultSwitch returns the calibrated SP switch. The link rate is set so
// that a 256-byte packet occupies a port for 6.53 µs, which with 224 payload
// bytes per packet yields the paper's 34.3 MB/s asymptotic AM bandwidth.
func DefaultSwitch() SwitchParams {
	return SwitchParams{
		Latency: 500 * Nanosecond,
		LinkBPS: 39.2e6,
	}
}

// AdapterParams describes the TB2 adapter timing.
type AdapterParams struct {
	// PickupLatency is the lag between the host's length-array store and
	// the i860 firmware noticing it (the firmware polls the length array).
	// Pure latency: it delays packets without occupying the i860.
	PickupLatency sim.Time
	// SendProc is the i860 firmware time to notice a nonzero length-array
	// slot and prepare the outbound DMA for one packet. The TB2's adapter
	// path dominates the SP's latency (the paper's central complaint);
	// calibrated so the one-word AM round trip lands at 51 µs.
	SendProc sim.Time
	// RecvProc is the i860 time to accept a packet from the MSMU and set up
	// the inbound DMA.
	RecvProc sim.Time
	// MicroChannelBPS is the peak MicroChannel transfer rate used by the
	// DMA engines (paper §1.2: 80 MB/s peak on the 32-bit MicroChannel).
	MicroChannelBPS float64
	// MCAccess is the host cost of one programmed-I/O access across the
	// MicroChannel, e.g. storing into the adapter-resident length array
	// (paper §2.1: "each access costs around 1 µs").
	MCAccess sim.Time
}

// DefaultAdapter returns the calibrated TB2 parameters.
func DefaultAdapter() AdapterParams {
	return AdapterParams{
		PickupLatency:   US(2.4),
		SendProc:        US(6.0),
		RecvProc:        US(6.0),
		MicroChannelBPS: 80e6,
		MCAccess:        US(1.0),
	}
}

// NodeParams describes a processing node's memory-system costs, which is
// what the communication software actually pays (the paper's overheads are
// cache flushes, copies, and MicroChannel accesses, not ALU time).
type NodeParams struct {
	Name string
	// CacheLineBytes is the data-cache line size: 64 B on thin (model 390)
	// nodes, 256 B on wide (model 590) nodes (paper §1.2).
	CacheLineBytes int
	// FlushPerLine is the cost of flushing one cache line to memory; the
	// RS/6000 memory bus is not I/O-coherent, so every FIFO entry must be
	// flushed explicitly (paper §2.1).
	FlushPerLine sim.Time
	// MemcpyPerByte is the per-byte cost of a cached copy.
	MemcpyPerByte sim.Time
	// CPUScale multiplies computation time charged via Node.Compute;
	// 1.0 is a 66 MHz POWER2 thin node.
	CPUScale float64
}

// ThinNode returns the model-390 thin node used for most of the paper's
// measurements.
func ThinNode() NodeParams {
	return NodeParams{
		Name:           "thin",
		CacheLineBytes: 64,
		FlushPerLine:   450 * Nanosecond,
		MemcpyPerByte:  9 * Nanosecond,
		CPUScale:       1.0,
	}
}

// WideNode returns the model-590 wide node: 256-byte cache lines and a wider
// memory bus make flushes and copies cheaper per byte (paper §1.2, §4.3).
func WideNode() NodeParams {
	return NodeParams{
		Name:           "wide",
		CacheLineBytes: 256,
		FlushPerLine:   700 * Nanosecond,
		MemcpyPerByte:  6 * Nanosecond,
		CPUScale:       0.85,
	}
}
