package mpif

import (
	"spam/internal/mpi"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// Isend starts a nonblocking send: eager below EagerMax, rendezvous above.
func (c *Comm) Isend(p *sim.Proc, data []byte, dst, tag int) *Request {
	req := &Request{isSend: true, dst: dst, data: data}
	c.node().ComputeUnscaled(p, costEnv)
	if len(data) <= EagerMax {
		msg := make([]byte, hdrBytes+len(data))
		putHdr(msg, kEager, tag, len(data), 0)
		copy(msg[hdrBytes:], data)
		c.node().Memcpy(p, len(data)) // eager marshalling copy
		c.ep.Send(p, dst, ctlTag, msg)
		// Eager sends complete once the library has copied the message.
		req.done = true
		return req
	}
	c.nextRdv++
	req.rdvID = c.nextRdv
	c.rdvSends[req.rdvID] = req
	var rts [hdrBytes]byte
	putHdr(rts[:], kRTS, tag, len(data), req.rdvID)
	c.ep.Send(p, dst, ctlTag, append([]byte(nil), rts[:]...))
	return req
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(p *sim.Proc, buf []byte, src, tag int) *Request {
	req := &Request{buf: buf, src: src, rtag: tag}
	c.node().ComputeUnscaled(p, costMatch)
	if m := c.matchUnexpected(src, tag); m != nil {
		c.claim(p, req, m)
		return req
	}
	c.posted = append(c.posted, req)
	return req
}

func (c *Comm) claim(p *sim.Proc, req *Request, m *inMsg) {
	req.status = mpi.Status{Source: m.src, Tag: m.tag, Size: m.size}
	if m.eager {
		n := copy(req.buf, m.data)
		c.node().Memcpy(p, n)
		req.done = true
		return
	}
	// Parked RTS: open the data path and send clear-to-send.
	req.handle = c.ep.PostRecv(p, m.src, dataTag(m.rdvID), req.buf[:m.size])
	c.inflight = append(c.inflight, req)
	var cts [hdrBytes]byte
	putHdr(cts[:], kCTS, m.tag, m.size, m.rdvID)
	c.ep.Send(p, m.src, ctlTag, append([]byte(nil), cts[:]...))
}

func (c *Comm) matchUnexpected(src, tag int) *inMsg {
	for i, m := range c.unexpected {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			return m
		}
	}
	return nil
}

func (c *Comm) matchPosted(src, tag int) *Request {
	for i, r := range c.posted {
		if (r.src == AnySource || r.src == src) && (r.rtag == AnyTag || r.rtag == tag) {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// progress drains the control plane and completes in-flight rendezvous
// receives.
func (c *Comm) progress(p *sim.Proc) {
	for c.ep.Probe(p, ctlTag) {
		n, src, _ := c.ep.Recv(p, mpl.AnySource, ctlTag, c.scratch[:])
		kind, tag, size, rdvID := readHdr(c.scratch[:])
		switch kind {
		case kEager:
			c.node().ComputeUnscaled(p, costMatch)
			if req := c.matchPosted(src, tag); req != nil {
				nc := copy(req.buf, c.scratch[hdrBytes:n])
				c.node().Memcpy(p, nc)
				req.status = mpi.Status{Source: src, Tag: tag, Size: size}
				req.done = true
				continue
			}
			// Early arrival: keep the library copy.
			cp := append([]byte(nil), c.scratch[hdrBytes:n]...)
			c.node().Memcpy(p, len(cp))
			c.unexpected = append(c.unexpected, &inMsg{src: src, tag: tag, size: size, eager: true, data: cp})
		case kRTS:
			c.node().ComputeUnscaled(p, costMatch)
			if req := c.matchPosted(src, tag); req != nil {
				req.status = mpi.Status{Source: src, Tag: tag, Size: size}
				req.handle = c.ep.PostRecv(p, src, dataTag(rdvID), req.buf[:size])
				c.inflight = append(c.inflight, req)
				var cts [hdrBytes]byte
				putHdr(cts[:], kCTS, tag, size, rdvID)
				c.ep.Send(p, src, ctlTag, append([]byte(nil), cts[:]...))
				continue
			}
			c.unexpected = append(c.unexpected, &inMsg{src: src, tag: tag, size: size, rdvID: rdvID})
		case kCTS:
			c.shipData(p, src, rdvID)
		}
	}
	// Complete rendezvous receives whose data has fully arrived.
	for i := 0; i < len(c.inflight); {
		req := c.inflight[i]
		if req.handle.Done() {
			req.handle.Complete(p)
			req.done = true
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			continue
		}
		i++
	}
}

func (c *Comm) shipData(p *sim.Proc, dst int, rdvID uint32) {
	req := c.rdvSends[rdvID]
	if req == nil {
		panic("mpif: CTS for unknown send")
	}
	delete(c.rdvSends, rdvID)
	// Private copy: the library owns the data from here, and the transport
	// holds it by reference until injection. The request only completes once
	// injection finishes (see Wait), keeping the sender driving the credit
	// window instead of stranding a queued message while it computes.
	req.sendH = c.ep.SendH(p, dst, dataTag(rdvID), append([]byte(nil), req.data...))
	req.done = true
}

// Wait blocks until req completes. A rendezvous send is complete only when
// its data message has fully left the library for the adapter: MPL injection
// is host-driven (per-destination message credits and the packet window are
// serviced by library calls only), so returning at clear-to-send with the
// data still queued would let the caller enter a long computation phase
// during which no packet moves — the 16-node NAS exchange stall.
func (c *Comm) Wait(p *sim.Proc, req *Request) (mpi.Status, error) {
	for !req.done || (req.sendH != nil && !req.sendH.Injected()) {
		if c.deadline > 0 && c.node().Eng.Now() >= c.deadline {
			peer := -1
			if req.isSend {
				peer = req.dst
			} else if req.src != AnySource {
				peer = req.src
			}
			return req.status, &mpi.Error{Code: mpi.ErrTimeout, Rank: c.Rank(), Peer: peer}
		}
		c.progress(p)
	}
	return req.status, nil
}

// Send is the blocking standard send.
func (c *Comm) Send(p *sim.Proc, data []byte, dst, tag int) error {
	req := c.Isend(p, data, dst, tag)
	if _, err := c.Wait(p, req); err != nil {
		return err
	}
	// Blocking semantics: the source buffer must be reusable; drive the
	// transport until our queued messages are injected.
	c.ep.DrainSends(p)
	return nil
}

// Recv is the blocking receive.
func (c *Comm) Recv(p *sim.Proc, buf []byte, src, tag int) (mpi.Status, error) {
	req := c.Irecv(p, buf, src, tag)
	return c.Wait(p, req)
}

// Sendrecv performs the combined operation.
func (c *Comm) Sendrecv(p *sim.Proc, sendbuf []byte, dst, stag int, recvbuf []byte, src, rtag int) (mpi.Status, error) {
	rr := c.Irecv(p, recvbuf, src, rtag)
	sr := c.Isend(p, sendbuf, dst, stag)
	if _, err := c.Wait(p, sr); err != nil {
		return mpi.Status{}, err
	}
	return c.Wait(p, rr)
}

// mpi.PT adapters, so the MPICH-style generic collectives and the NAS
// kernels run unchanged on MPI-F.

// IsendR adapts Isend to mpi.PT.
func (c *Comm) IsendR(p *sim.Proc, data []byte, dst, tag int) mpi.Req {
	return c.Isend(p, data, dst, tag)
}

// IrecvR adapts Irecv to mpi.PT.
func (c *Comm) IrecvR(p *sim.Proc, buf []byte, src, tag int) mpi.Req {
	return c.Irecv(p, buf, src, tag)
}

// WaitR adapts Wait to mpi.PT.
func (c *Comm) WaitR(p *sim.Proc, r mpi.Req) (mpi.Status, error) { return c.Wait(p, r.(*Request)) }

// SendB adapts Send to mpi.PT.
func (c *Comm) SendB(p *sim.Proc, data []byte, dst, tag int) error {
	return c.Send(p, data, dst, tag)
}

// RecvB adapts Recv to mpi.PT.
func (c *Comm) RecvB(p *sim.Proc, buf []byte, src, tag int) (mpi.Status, error) {
	return c.Recv(p, buf, src, tag)
}

// NextCollTag returns the next reserved collective tag.
func (c *Comm) NextCollTag() int {
	c.collSeq++
	return -(10 + c.collSeq)
}

// Alltoall uses the vendor-tuned pairwise exchange (not MPICH's convoying
// generic algorithm) — the concrete difference Table 6's FT row exposes.
func (c *Comm) Alltoall(p *sim.Proc, send, recv []byte, chunk int) error {
	return mpi.AlltoallPairwise(p, c, send, recv, chunk)
}

var _ mpi.PT = (*Comm)(nil)
