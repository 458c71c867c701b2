// Package mpi implements the two MPIs the paper compares, over one
// matching core: MPI-AM, the paper's Section-4 port of MPICH onto SP
// Active Messages, and MPI-F, IBM's from-scratch MPI for the SP (Figures
// 8–11, Table 6). Only the machine-dependent core is built here — the
// point-to-point protocols the MPICH abstract device interface (ADI) needs
// — plus MPICH's generic collectives layered on the point-to-point calls
// (the paper does the same, and pays for it in FT's Alltoall). Both Comm
// types embed the same core: the posted and unexpected queues, the
// wildcard rule, cancellation, the expiry check, the collective tags and
// the rendezvous ids.
// What differs is each transport's protocol, its costs and its Alltoall.
//
// MPI-AM (New, Comm) moves data with three protocols, exactly as in
// §4.1–4.2:
//
//   - Buffered: the sender allocates space in a 16 KB per-sender region it
//     owns at the receiver (no communication needed), am_store's
//     [envelope|payload] into it, and the store handler either copies the
//     message into a posted receive and frees the space via its reply, or
//     parks it on the unexpected list until a receive shows up.
//   - Rendezvous: a request-for-address message; the receiver replies with
//     the receive buffer's address once the receive is posted; the sender
//     then stores straight into the user buffer. The address-reply handler
//     may not perform the store (the AM handler restriction), so it queues
//     the transfer for the next polling MPI call.
//   - Hybrid buffered/rendezvous (optimized): a 4 KB prefix travels
//     buffered while the rendezvous completes, hiding the address
//     round-trip and removing the protocol-switch bandwidth discontinuity.
//
// The unoptimized configuration (first-fit allocator, one free message per
// buffer, buffered→rendezvous switch at 16 KB) and the optimized one
// (binned allocator, batched frees, hybrid protocol from 8 KB) are both
// available, since Figures 8–11 plot the two against MPI-F.
//
// MPI-F (NewF, FComm) runs over the same MPL-class transport the vendor
// stack used, with a leaner, wide-node-tuned call path, an eager protocol
// up to 4 KB, and a rendezvous protocol above — the 4 KB switch is where
// MPI-F's bandwidth visibly dips (§4.2, footnote 4). Its Alltoall is the
// vendor-tuned pairwise exchange, the difference the paper's FT
// discussion highlights.
package mpi

import (
	"cmp"
	"encoding/binary"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
)

const (
	// envelope layout inside a buffered message: 16 bytes before the payload.
	envBytes = 16
	// perPeerBuf is the per-sender buffered region size.
	perPeerBuf = 16 << 10
	// rdvSlots is the size of the receive-buffer registration pool.
	rdvSlots = 128
)

// Options selects the protocol configuration.
type Options struct {
	// Optimized selects the paper's §4.2 optimizations: binned allocator,
	// batched buffer frees, hybrid protocol.
	Optimized bool
	// BufferedMax is the largest message sent purely buffered; beyond it
	// the rendezvous (or hybrid) protocol takes over. 16 KB unoptimized,
	// 8 KB optimized.
	BufferedMax int
	// HybridPrefix is the prefix shipped buffered while the rendezvous
	// handshake is in flight (0 disables the hybrid protocol).
	HybridPrefix int
}

// Unoptimized returns the paper's first-cut configuration.
func Unoptimized() Options {
	return Options{Optimized: false, BufferedMax: 16 << 10, HybridPrefix: 0}
}

// Optimized returns the §4.2 configuration.
func Optimized() Options {
	return Options{Optimized: true, BufferedMax: 8 << 10, HybridPrefix: 4 << 10}
}

// Calibrated MPICH-layer software costs (on top of the AM calls).
const (
	costEnvBuild = 1200 * hw.Nanosecond // building the envelope + protocol decision
	costMatch    = 800 * hw.Nanosecond  // matching a message against the queues
	costAllocBin = 400 * hw.Nanosecond  // binned allocation (optimized)
	costAllocFF  = 2400 * hw.Nanosecond // first-fit allocation (the §4.2 culprit)
	costFree     = 500 * hw.Nanosecond  // processing one buffer free
	costPostRecv = 700 * hw.Nanosecond  // posting a receive
	costRdvSetup = 1500 * hw.Nanosecond // rendezvous state bookkeeping
)

// System is MPI-AM instantiated across a cluster.
type System struct {
	AM    *am.System
	Comms []*Comm
	Opt   Options

	h handlers
}

type handlers struct {
	bufStore am.HandlerID // bulk: buffered [env|payload] landed
	bufFree  am.HandlerID // short: frees packed as words
	rts      am.HandlerID // short: rendezvous request-to-send
	cts      am.HandlerID // short: clear-to-send (buffer address)
	rdvData  am.HandlerID // bulk: rendezvous payload landed
}

// New builds MPI-AM over a fresh AM system on c.
func New(c *hw.Cluster, opt Options) *System {
	s := &System{AM: am.New(c), Opt: opt}
	s.registerHandlers()
	for i := range c.Nodes {
		s.Comms = append(s.Comms, newComm(s, s.AM.EPs[i]))
	}
	return s
}

// Finalize is MPI_Finalize: a barrier followed by a drain of the underlying
// AM system. A rank that returns from its last MPI call stops polling, and
// with it stops retransmitting — under packet loss a peer can then wait
// forever for a resend that will never come. Finalize keeps every rank
// servicing the network until no packet anywhere in the system awaits
// delivery or acknowledgement, making clean exit safe under faults.
//
// budget bounds the whole call in simulated time (0 = unbounded, the
// historical behavior). With a positive budget, a Finalize stuck behind a
// dead or partitioned peer returns a typed error — *Error for the barrier
// leg, *am.DrainTimeoutError naming unacked peers for the drain leg —
// instead of wedging the rank.
func (c *Comm) Finalize(p *sim.Proc, budget sim.Time) error {
	left, berr := c.finalBarrier(p, c, budget)
	return cmp.Or(berr, c.ep.Drain(p, left))
}

// Comm is one rank's MPI-AM library state (MPI_COMM_WORLD).
type Comm struct {
	core
	sys *System
	ep  *am.Endpoint

	bufSeg   int   // segment 0: P x perPeerBuf buffered regions
	slotFree []int // rendezvous registration pool: the segments not in use

	alloc []allocator // my view of my space at each receiver

	pendCTS   ring.Ring[*Request]    // CTS received; stores to issue from progress
	pendFrees []ring.Ring[freeEntry] // per source: extents to give back, batched
	nFrees    int                    // entries across all pendFrees
	tick      int

	rdvRecv map[rdvKey]*Request // (src, rdvID) -> posted recv awaiting data

	// Stats
	SendsBuffered, SendsRdv, SendsHybrid int64
}

// rdvKey identifies a rendezvous at the receiver: ids are only unique
// per sender, so the sender rank is part of the key.
type rdvKey struct {
	src int
	id  uint32
}

type freeEntry struct{ off, ln int }

func newComm(s *System, ep *am.Endpoint) *Comm {
	n := ep.N()
	c := &Comm{core: newCore(ep.Node(), ep.ID(), n), sys: s, ep: ep,
		pendFrees: make([]ring.Ring[freeEntry], n),
		rdvRecv:   make(map[rdvKey]*Request),
	}
	region := make([]byte, n*perPeerBuf)
	c.bufSeg = ep.Node().Mem.Add(region)
	for i := 0; i < rdvSlots; i++ {
		c.slotFree = append(c.slotFree, ep.Node().Mem.Add(nil))
	}
	c.alloc = make([]allocator, n)
	for i := range c.alloc {
		c.alloc[i] = newAllocator(s.Opt)
	}
	ep.SetErrorHandler(func(p *sim.Proc, e *am.Endpoint, peer int, derr *am.PeerDeathError) {
		if c.peerErrs[peer] == nil {
			c.peerErrs[peer] = &Error{Code: ErrPeerDead, Rank: c.Rank(), Peer: peer, Cause: derr}
		}
	})
	ep.Data = c
	return c
}

func putEnv(b []byte, tag int, size int, rdvID uint32, prefix int) {
	binary.LittleEndian.PutUint32(b[0:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(b[4:], uint32(size))
	binary.LittleEndian.PutUint32(b[8:], rdvID)
	binary.LittleEndian.PutUint32(b[12:], uint32(prefix))
}

func readEnv(b []byte) (tag int, size int, rdvID uint32, prefix int) {
	tag = int(int32(binary.LittleEndian.Uint32(b[0:])))
	size = int(binary.LittleEndian.Uint32(b[4:]))
	rdvID = binary.LittleEndian.Uint32(b[8:])
	prefix = int(binary.LittleEndian.Uint32(b[12:]))
	return
}
