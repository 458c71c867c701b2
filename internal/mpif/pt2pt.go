package mpif

import (
	"slices"

	"spam/internal/mpi"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// Isend starts a nonblocking send: eager below EagerMax, rendezvous above.
func (c *Comm) Isend(p *sim.Proc, data []byte, dst, tag int) mpi.Req {
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
func (c *Comm) Irecv(p *sim.Proc, buf []byte, src, tag int) mpi.Req {
	req := &Request{buf: buf, src: src, rtag: tag}
	c.node().ComputeUnscaled(p, costMatch)
	if m := c.matchUnexpected(src, tag); m != nil {
		c.claim(p, req, m)
		return req
	}
	c.posted = append(c.posted, req)
	return req
}

// claim delivers a matched message to req: an eager one is copied in, a
// rendezvous one opens the data path and answers clear-to-send.
func (c *Comm) claim(p *sim.Proc, req *Request, m *inMsg) {
	req.status = mpi.Status{Source: m.src, Tag: m.tag, Size: m.size}
	if m.eager {
		n := copy(req.buf, m.data)
		c.node().Memcpy(p, n)
		req.done = true
		return
	}
	req.handle = c.ep.PostRecv(m.src, dataTag(m.rdvID), req.buf[:m.size])
	c.inflight = append(c.inflight, req)
	var cts [hdrBytes]byte
	putHdr(cts[:], kCTS, m.tag, m.size, m.rdvID)
	c.ep.Send(p, m.src, ctlTag, append([]byte(nil), cts[:]...))
}

func (c *Comm) matchUnexpected(src, tag int) *inMsg {
	i := slices.IndexFunc(c.unexpected, func(m *inMsg) bool {
		return (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag)
	})
	if i < 0 {
		return nil
	}
	m := c.unexpected[i]
	c.unexpected = slices.Delete(c.unexpected, i, i+1)
	return m
}

func (c *Comm) matchPosted(src, tag int) *Request {
	i := slices.IndexFunc(c.posted, func(r *Request) bool {
		return (r.src == AnySource || r.src == src) && (r.rtag == AnyTag || r.rtag == tag)
	})
	if i < 0 {
		return nil
	}
	r := c.posted[i]
	c.posted = slices.Delete(c.posted, i, i+1)
	return r
}

// cancel deregisters a receive still waiting for its message, so a later
// message cannot land in an abandoned buffer. A receive already matched to
// a rendezvous stays registered: its data may still be in flight.
func (c *Comm) cancel(req *Request) {
	if i := slices.Index(c.posted, req); i >= 0 {
		c.posted = slices.Delete(c.posted, i, i+1)
	}
}

// progress drains the control plane and completes in-flight rendezvous
// receives.
func (c *Comm) progress(p *sim.Proc) {
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
		c.node().ComputeUnscaled(p, costMatch)
		m := &inMsg{src: src, tag: tag, size: size, eager: kind == kEager, data: c.scratch[hdrBytes:n], rdvID: rdvID}
		if req := c.matchPosted(src, tag); req != nil {
			c.claim(p, req, m)
			continue
		}
		if m.eager {
			// Early arrival: keep the library copy.
			m.data = append([]byte(nil), m.data...)
			c.node().Memcpy(p, len(m.data))
		}
		c.unexpected = append(c.unexpected, m)
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
	req.sendH = c.ep.Send(p, dst, dataTag(rdvID), append([]byte(nil), req.data...))
	req.done = true
}

// Wait blocks until req completes. A rendezvous send is complete only when
// its data message has fully left the library for the adapter: MPL injection
// is host-driven (per-destination message credits and the packet window are
// serviced by library calls only), so returning at clear-to-send with the
// data still queued would let the caller enter a long computation phase
// during which no packet moves — the 16-node NAS exchange stall. A receive
// that times out unmatched is deregistered.
func (c *Comm) Wait(p *sim.Proc, r mpi.Req) (mpi.Status, error) {
	req := r.(*Request)
	for !req.done || (req.sendH != nil && !req.sendH.Injected()) {
		if c.deadline > 0 && c.node().Eng.Now() >= c.deadline {
			peer := -1
			if req.isSend {
				peer = req.dst
			} else if req.src != AnySource {
				peer = req.src
			}
			c.cancel(req)
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
		c.cancel(rr.(*Request))
		return mpi.Status{}, err
	}
	return c.Wait(p, rr)
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
