// Package mpif models MPI-F, IBM's from-scratch MPI for the SP that the
// paper compares MPI-AM against (Figures 8–11, Table 6). It is built over
// the same MPL-class transport the vendor stack used, with a leaner,
// wide-node-tuned call path, an eager protocol up to 4 KB, and a
// rendezvous protocol above — the 4 KB switch is where MPI-F's bandwidth
// visibly dips (§4.2, footnote 4).
//
// mpif.Comm implements mpi.PT, so the MPICH-style generic collectives work
// unchanged; its Alltoall, however, is the vendor-tuned pairwise exchange,
// which is exactly the difference the paper's FT discussion highlights.
package mpif

import (
	"encoding/binary"

	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// Wildcards (same values as package mpi).
const (
	AnySource = -1
	AnyTag    = -1
)

// EagerMax is the eager→rendezvous switch (4 KB; the paper notes IBM's
// library could also be configured for 8 KB).
const EagerMax = 4 << 10

// ctlTag is the MPL tag plane carrying all MPI-F control traffic (eager
// messages, RTS, CTS); rendezvous data travels on per-transfer tags.
const ctlTag = 1

// control header: kind, tag, size, rdvID.
const hdrBytes = 16

const (
	kEager uint32 = iota + 1
	kRTS
	kCTS
)

// MPI-F layer costs (on top of the transport's).
const (
	costEnv   = 1000 * hw.Nanosecond
	costMatch = 800 * hw.Nanosecond
)

// System is MPI-F instantiated across a cluster.
type System struct {
	Cluster *hw.Cluster
	MPL     *mpl.System
	Comms   []*Comm
}

// New builds MPI-F on c. On wide nodes the call path runs at the tuned
// (reduced) overhead — "evidently MPI-F was optimized for the wide nodes".
func New(c *hw.Cluster) *System {
	s := &System{Cluster: c, MPL: mpl.New(c)}
	if len(c.Nodes) > 0 && c.Nodes[0].P.Name == "wide" {
		s.MPL.CallScale = 0.35
	} else {
		s.MPL.CallScale = 0.92
	}
	for i := range c.Nodes {
		s.Comms = append(s.Comms, &Comm{
			sys: s, ep: s.MPL.EPs[i],
			rdvSends: make(map[uint32]*Request),
		})
	}
	return s
}

// Request is a nonblocking-operation handle.
type Request struct {
	done   bool
	status mpi.Status

	// send side
	isSend  bool
	dst     int
	tag     int
	data    []byte
	rdvID   uint32
	ctsSeen bool
	sendH   *mpl.SendHandle // rendezvous data injection progress

	// recv side
	buf    []byte
	src    int
	rtag   int
	handle *mpl.RecvHandle // rendezvous data receive
}

// Done reports completion.
func (r *Request) Done() bool { return r.done }

// inMsg is an arrived-but-unmatched message (eager copy or parked RTS).
type inMsg struct {
	src, tag, size int
	eager          bool
	data           []byte
	rdvID          uint32
}

// Comm is one rank's MPI-F library state.
type Comm struct {
	sys *System
	ep  *mpl.Endpoint

	posted     []*Request
	unexpected []*inMsg
	nextRdv    uint32
	rdvSends   map[uint32]*Request // sends awaiting clear-to-send
	inflight   []*Request          // recvs with rendezvous data pending
	scratch    [hdrBytes + EagerMax]byte
	collSeq    int

	// deadline, when nonzero, bounds every blocking call in simulated time.
	// MPL has no fail-stop detection of its own, so the deadline is MPI-F's
	// only defense against wedging on a dead peer.
	deadline sim.Time
}

// SetDeadline arms an absolute simulated-time deadline on every blocking
// call (0 disarms); an overdue call returns mpi.ErrTimeout.
func (c *Comm) SetDeadline(at sim.Time) { c.deadline = at }

// Finalize is MPI_Finalize for MPI-F: a barrier, then draining this rank's
// queued transport sends. budget bounds the barrier in simulated time
// (0 = unbounded).
func (c *Comm) Finalize(p *sim.Proc, budget sim.Time) error {
	prev := c.deadline
	if budget > 0 {
		c.deadline = c.node().Eng.Now() + budget
	}
	err := mpi.Barrier(p, c)
	c.deadline = prev
	if err != nil {
		return err
	}
	c.ep.DrainSends(p)
	return nil
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.ep.ID() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.ep.N() }

func (c *Comm) node() *hw.Node { return c.ep.Node() }

// dataTag maps a rendezvous id onto its private MPL tag plane.
func dataTag(rdvID uint32) int { return 1<<20 + int(rdvID) }

func putHdr(b []byte, kind uint32, tag, size int, rdvID uint32) {
	binary.LittleEndian.PutUint32(b[0:], kind)
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(b[8:], uint32(size))
	binary.LittleEndian.PutUint32(b[12:], rdvID)
}

func readHdr(b []byte) (kind uint32, tag, size int, rdvID uint32) {
	kind = binary.LittleEndian.Uint32(b[0:])
	tag = int(int32(binary.LittleEndian.Uint32(b[4:])))
	size = int(binary.LittleEndian.Uint32(b[8:]))
	rdvID = binary.LittleEndian.Uint32(b[12:])
	return
}
