// Package mpi implements MPI-AM: the paper's Section-4 port of MPICH onto
// SP Active Messages. Only the machine-dependent core is built here — the
// point-to-point protocols the MPICH abstract device interface (ADI) needs
// — plus MPICH's generic collectives layered on the point-to-point calls
// (the paper does the same, and pays for it in FT's Alltoall).
//
// Three protocols move data, exactly as in §4.1–4.2:
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
package mpi

import (
	"encoding/binary"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
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
	Cluster *hw.Cluster
	AM      *am.System
	Comms   []*Comm
	Opt     Options

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
	s := &System{Cluster: c, AM: am.New(c), Opt: opt}
	s.registerHandlers()
	for i := range c.Nodes {
		s.Comms = append(s.Comms, newComm(s, s.AM.EPs[i]))
	}
	return s
}

// Status describes a completed receive.
type Status struct {
	Source, Tag, Size int
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
	prev := c.deadline
	if budget > 0 {
		c.deadline = c.node().Eng.Now() + budget
	}
	berr := Barrier(p, c)
	var drainBudget sim.Time
	if budget > 0 {
		drainBudget = c.deadline - c.node().Eng.Now()
		if drainBudget <= 0 {
			drainBudget = 1
		}
	}
	c.deadline = prev
	derr := c.ep.Drain(p, drainBudget)
	if berr != nil {
		return berr
	}
	return derr
}

// SetDeadline arms an absolute simulated-time deadline on every blocking
// call on this communicator (0 disarms). A call still incomplete when the
// deadline passes returns *Error with ErrTimeout instead of spinning.
func (c *Comm) SetDeadline(at sim.Time) { c.deadline = at }

// reqKind distinguishes request types.
type reqKind uint8

const (
	rkSend reqKind = iota
	rkRecv
)

// Request is a nonblocking operation handle.
type Request struct {
	kind   reqKind
	done   bool
	status Status
	err    error // sticky failure; Wait reports it instead of spinning

	// send state
	dst, tag int
	data     []byte
	rdvID    uint32
	prefix   int // bytes already shipped via the hybrid prefix
	ctsSlot  int // receiver segment for the rendezvous store (-1 until CTS)
	ctsSeen  bool
	storing  bool

	// recv state
	buf  []byte
	src  int
	rtag int
	slot int // rendezvous registration slot while data is inbound
}

// Done reports completion without progressing the engine.
func (r *Request) Done() bool { return r.done }

// Comm is one rank's MPI library state (MPI_COMM_WORLD).
type Comm struct {
	sys *System
	ep  *am.Endpoint

	bufSeg   int   // segment 0: P x perPeerBuf buffered regions
	slotSegs []int // rendezvous registration pool
	slotFree []int

	alloc []allocator // my view of my space at each receiver

	posted     []*Request
	unexpected []*inMsg

	pendCTS   ring.Ring[pendingCTS]  // CTS received; stores to issue from progress
	pendFrees []ring.Ring[freeEntry] // per source: extents to give back, batched
	nFrees    int                    // entries across all pendFrees
	tick      int

	nextRdv uint32
	rdvSend map[uint32]*Request // rdvID -> send awaiting CTS
	rdvRecv map[rdvKey]*Request // (src, rdvID) -> posted recv awaiting data
	collSeq int                 // collective sequence number (tag salt)

	// Failure state. peerErrs is sticky per peer (set once when the AM layer
	// declares the peer dead); deadline, when nonzero, bounds every blocking
	// call.
	peerErrs []error
	deadline sim.Time

	// Stats
	SendsBuffered, SendsRdv, SendsHybrid int64
}

// inMsg is a message known to the receiver but not yet matched: either a
// buffered arrival (data sitting in the buffered region) or a rendezvous
// RTS awaiting a matching receive.
type inMsg struct {
	src, tag int
	size     int
	buffered bool
	region   []byte // buffered payload (view into the buffered segment)
	freeOff  int    // offset to free once copied
	freeLen  int
	rdvID    uint32
	prefix   int // hybrid prefix bytes present in region
}

// rdvKey identifies a rendezvous at the receiver: ids are only unique
// per sender, so the sender rank is part of the key.
type rdvKey struct {
	src int
	id  uint32
}

type pendingCTS struct {
	req *Request
}

type freeEntry struct{ off, ln int }

func newComm(s *System, ep *am.Endpoint) *Comm {
	n := ep.N()
	c := &Comm{sys: s, ep: ep,
		pendFrees: make([]ring.Ring[freeEntry], n),
		rdvSend:   make(map[uint32]*Request),
		rdvRecv:   make(map[rdvKey]*Request),
	}
	region := make([]byte, n*perPeerBuf)
	c.bufSeg = ep.Node().Mem.Add(region)
	for i := 0; i < rdvSlots; i++ {
		seg := ep.Node().Mem.Add(nil)
		c.slotSegs = append(c.slotSegs, seg)
		c.slotFree = append(c.slotFree, seg)
	}
	c.alloc = make([]allocator, n)
	for i := range c.alloc {
		c.alloc[i] = newAllocator(s.Opt)
	}
	c.peerErrs = make([]error, n)
	ep.SetErrorHandler(func(p *sim.Proc, e *am.Endpoint, peer int, derr *am.PeerDeathError) {
		if c.peerErrs[peer] == nil {
			c.peerErrs[peer] = &Error{Code: ErrPeerDead, Rank: c.Rank(), Peer: peer, Cause: derr}
		}
	})
	ep.Data = c
	return c
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.ep.ID() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.ep.N() }

func (c *Comm) node() *hw.Node { return c.ep.Node() }

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
