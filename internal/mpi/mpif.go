package mpi

import (
	"encoding/binary"

	"spam/internal/hw"
	"spam/internal/mpl"
	"spam/internal/ring"
	"spam/internal/sim"
)

// eagerMax is MPI-F's eager→rendezvous switch (4 KB; the paper notes IBM's
// library could also be configured for 8 KB).
const eagerMax = 4 << 10

// ctlTag is the MPL tag plane carrying all MPI-F control traffic (eager
// messages, RTS, CTS); rendezvous data travels on per-transfer tags.
const ctlTag = 1

// MPI-F control header: kind, tag, size, rdvID.
const hdrBytes = 16

const (
	kEager uint32 = iota + 1
	kRTS
	kCTS
)

// MPI-F layer costs (on top of the transport's).
const (
	costFEnv   = 1000 * hw.Nanosecond
	costFMatch = 800 * hw.Nanosecond
)

// FSystem is MPI-F instantiated across a cluster.
type FSystem struct {
	MPL   *mpl.System
	Comms []*FComm
}

// NewF builds MPI-F on c. On wide nodes the call path runs at the tuned
// (reduced) overhead — "evidently MPI-F was optimized for the wide nodes".
func NewF(c *hw.Cluster) *FSystem {
	s := &FSystem{MPL: mpl.New(c)}
	if len(c.Nodes) > 0 && c.Nodes[0].P.Name == "wide" {
		s.MPL.CallScale = 0.35
	} else {
		s.MPL.CallScale = 0.92
	}
	for _, ep := range s.MPL.EPs {
		s.Comms = append(s.Comms, &FComm{
			core: newCore(ep.Node(), ep.ID(), ep.N()),
			ep:   ep,
		})
	}
	return s
}

// FComm is one rank's MPI-F library state. MPL has no fail-stop detection
// of its own, so the deadline is MPI-F's only defense against wedging on a
// dead peer.
type FComm struct {
	core
	ep *mpl.Endpoint

	inflight ring.Ring[*Request] // recvs with rendezvous data pending
	scratch  [hdrBytes + eagerMax]byte
}

// Finalize is MPI_Finalize for MPI-F: a barrier, then draining this rank's
// queued transport sends. budget bounds the barrier in simulated time
// (0 = unbounded).
func (c *FComm) Finalize(p *sim.Proc, budget sim.Time) error {
	if _, err := c.finalBarrier(p, c, budget); err != nil {
		return err
	}
	c.ep.DrainSends(p)
	return nil
}

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

// Isend starts a nonblocking send: eager below eagerMax, rendezvous above.
func (c *FComm) Isend(p *sim.Proc, data []byte, dst, tag int) *Request {
	req := c.newSend(data, dst, tag)
	c.nd.ComputeUnscaled(p, costFEnv)
	if len(data) <= eagerMax {
		msg := make([]byte, hdrBytes+len(data))
		putHdr(msg, kEager, tag, len(data), 0)
		copy(msg[hdrBytes:], data)
		c.nd.Memcpy(p, len(data)) // eager marshalling copy
		c.ep.Send(p, dst, ctlTag, msg)
		// Eager sends complete once the library has copied the message.
		req.done = true
		return req
	}
	c.holdRdv(req)
	var rts [hdrBytes]byte
	putHdr(rts[:], kRTS, tag, len(data), req.rdvID)
	c.ep.Send(p, dst, ctlTag, append([]byte(nil), rts[:]...))
	return req
}

// Irecv posts a nonblocking receive.
func (c *FComm) Irecv(p *sim.Proc, buf []byte, src, tag int) *Request {
	req := c.newRecv(buf, src, tag)
	c.nd.ComputeUnscaled(p, costFMatch)
	if m, ok := c.matchUnexpected(src, tag); ok {
		c.claim(p, req, &m)
		return req
	}
	c.posted.Push(req)
	return req
}

// claim delivers a matched message to req: an eager one is copied in, a
// rendezvous one opens the data path and answers clear-to-send.
func (c *FComm) claim(p *sim.Proc, req *Request, m *inMsg) {
	dst := c.bind(req, m)
	if m.rdvID == 0 {
		c.nd.Memcpy(p, copy(dst, m.data))
		req.done = true
		return
	}
	req.recvH = c.ep.PostRecv(m.src, dataTag(m.rdvID), dst)
	c.inflight.Push(req)
	var cts [hdrBytes]byte
	putHdr(cts[:], kCTS, m.tag, m.size, m.rdvID)
	c.ep.Send(p, m.src, ctlTag, append([]byte(nil), cts[:]...))
}

// progress drains the control plane and completes in-flight rendezvous
// receives.
func (c *FComm) progress(p *sim.Proc) {
	for c.ep.Poll(p); ; c.ep.Poll(p) {
		n, src, _, ok := c.ep.TryRecv(p, mpl.AnySource, ctlTag, c.scratch[:])
		if !ok {
			break
		}
		kind, tag, size, rdvID := readHdr(c.scratch[:])
		if kind == kCTS {
			c.shipData(p, src, rdvID)
			continue
		}
		c.nd.ComputeUnscaled(p, costFMatch)
		m := inMsg{src: src, tag: tag, size: size, data: c.scratch[hdrBytes:n], rdvID: rdvID}
		if req := c.matchPosted(src, tag); req != nil {
			c.claim(p, req, &m)
			continue
		}
		if m.rdvID == 0 {
			// Early eager arrival: keep the library copy.
			m.data = append([]byte(nil), m.data...)
			c.nd.Memcpy(p, len(m.data))
		}
		c.unexpected.Push(m)
	}
	// Complete rendezvous receives whose data has fully arrived.
	for {
		req, ok := c.inflight.Take(func(r **Request) bool { return (*r).recvH.Done() })
		if !ok {
			break
		}
		req.recvH.Complete(p)
		req.done = true
	}
}

func (c *FComm) shipData(p *sim.Proc, dst int, rdvID uint32) {
	req := c.takeRdv(rdvID)
	req.sendT = c.ep.Send(p, dst, dataTag(rdvID), req.buf)
	req.done = true
}

// Wait blocks until req completes. A rendezvous send is complete only when
// its data message has fully left the library for the adapter: MPL injection
// is host-driven (per-destination message credits and the packet window are
// serviced by library calls only), so returning at clear-to-send with the
// data still queued would let the caller enter a long computation phase
// during which no packet moves — the 16-node NAS exchange stall.
func (c *FComm) Wait(p *sim.Proc, req *Request) (Status, error) {
	for !req.done || (req.sendT != 0 && !c.ep.Injected(req.peer, req.sendT)) {
		if err := c.expired(req); err != nil {
			return req.status, err
		}
		c.progress(p)
	}
	return c.result(req)
}

// drainSends drives the transport until this rank's queued messages are
// injected, so a blocking send's buffer is reusable. It cannot fold into
// Wait: draining after every Wait leaves Figures 8 and 10 identical but
// moves MPI-F's Figure 9 n½ from 5,287 to 4,720 B and Figure 11's from
// 3,539 to 2,939 B, because a nonblocking Isend+Wait must not drain.
func (c *FComm) drainSends(p *sim.Proc) { c.ep.DrainSends(p) }

// Alltoall uses the vendor-tuned pairwise exchange (not MPICH's convoying
// generic algorithm) — the concrete difference Table 6's FT row exposes.
func (c *FComm) Alltoall(p *sim.Proc, send, recv []byte, chunk int) error {
	return AlltoallPairwise(p, c, send, recv, chunk)
}
