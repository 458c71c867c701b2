package mpi

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
)

// bufferedMax is the largest payload the buffered protocol carries (the
// envelope must fit the allocated extent too).
func (c *Comm) bufferedMax() int {
	return min(c.sys.Opt.BufferedMax, perPeerBuf-envBytes)
}

// regionBase is where rank src's buffered region starts in my bufSeg.
func (c *Comm) regionBase(src int) int { return src * perPeerBuf }

// packFree encodes a region-relative extent in one 32-bit word
// (off in 14 bits, length in 15 bits, +1 so a zero word means "no free").
func packFree(off, ln int) uint32 { return (uint32(off)<<15 | uint32(ln)) + 1 }

func unpackFree(w uint32) (off, ln int, ok bool) {
	if w == 0 {
		return 0, 0, false
	}
	w--
	return int(w >> 15), int(w & 0x7fff), true
}

// Isend starts a nonblocking standard send.
func (c *Comm) Isend(p *sim.Proc, data []byte, dst, tag int) *Request {
	req := c.newSend(data, dst, tag)
	if err := c.peerErrs[dst]; err != nil {
		req.err = err
		return req
	}
	c.nd.ComputeUnscaled(p, costEnvBuild)
	n := len(data)

	if n <= c.bufferedMax() {
		if c.sendBuffered(p, req, 0, 0) {
			return req
		}
		// No buffer space: fall through to rendezvous.
	}

	// Rendezvous, with a hybrid prefix when configured and buffer space
	// allows. The request-for-address goes out FIRST and the prefix
	// streams behind it, so the address reply overlaps the prefix transfer
	// and the remainder can start the moment the prefix drains — this is
	// what removes the protocol-switch discontinuity (§4.2, Figure 7).
	c.holdRdv(req)
	c.nd.ComputeUnscaled(p, costRdvSetup)
	prefix := 0
	if hp := c.sys.Opt.HybridPrefix; hp > 0 && n > hp {
		if off, bin, ok := c.alloc[dst].grab(envBytes + hp); ok {
			prefix = hp
			c.SendsHybrid++
			c.ep.Request(p, dst, c.sys.h.rts,
				uint32(int32(tag)), uint32(n), req.rdvID, uint32(prefix))
			c.storeBuffered(p, req, off, bin, req.rdvID, prefix)
		}
	}
	req.prefix = prefix
	if prefix == 0 {
		c.SendsRdv++
		c.ep.Request(p, dst, c.sys.h.rts,
			uint32(int32(tag)), uint32(n), req.rdvID, 0)
	}
	return req
}

// sendBuffered ships a complete message through the buffered protocol.
func (c *Comm) sendBuffered(p *sim.Proc, req *Request, rdvID uint32, prefix int) bool {
	off, bin, ok := c.alloc[req.peer].grab(envBytes + len(req.buf))
	if !ok {
		return false
	}
	c.SendsBuffered++
	c.storeBuffered(p, req, off, bin, rdvID, prefix)
	return true
}

// storeBuffered builds [envelope|payload-or-prefix] and stores it into the
// already-allocated extent at off.
func (c *Comm) storeBuffered(p *sim.Proc, req *Request, off int, bin bool, rdvID uint32, prefix int) {
	n := len(req.buf)
	payload := n
	if prefix > 0 {
		payload = prefix
	}
	if bin {
		c.nd.ComputeUnscaled(p, costAllocBin)
	} else {
		c.nd.ComputeUnscaled(p, costAllocFF)
	}
	buf := make([]byte, envBytes+payload)
	putEnv(buf, req.tag, n, rdvID, prefix)
	copy(buf[envBytes:], req.buf[:payload])
	raddr := hw.Addr{Seg: c.bufSeg, Off: c.regionBase(c.Rank()) + off}
	if rdvID == 0 {
		if err := c.ep.StoreAsync(p, req.peer, raddr, buf, c.sys.h.bufStore, 0,
			func(q *sim.Proc, e *am.Endpoint) { req.done = true }); err != nil {
			req.err = c.peerError(req.peer, err)
		}
	} else {
		// Prefix store: the request completes when the remainder is acked.
		if err := c.ep.StoreAsync(p, req.peer, raddr, buf, c.sys.h.bufStore, 0, nil); err != nil {
			req.err = c.peerError(req.peer, err)
		}
	}
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(p *sim.Proc, buf []byte, src, tag int) *Request {
	req := c.newRecv(buf, src, tag)
	c.nd.ComputeUnscaled(p, costPostRecv)
	if m, ok := c.matchUnexpected(src, tag); ok {
		c.nd.ComputeUnscaled(p, costMatch)
		c.claim(p, req, &m, nil)
		return req
	}
	c.posted.Push(req)
	return req
}

// claim delivers a matched message to req: a buffered message, or a hybrid
// prefix that already landed, is copied in and its extent freed; a
// rendezvous registers a slot for the data and answers clear-to-send. tok
// is the token of the store or RTS handler that found req posted, nil from
// Irecv: a handler may only reply (the AM handler restriction), so with a
// token the free and the CTS ride its reply, and without one the free is
// queued and the CTS is a request.
func (c *Comm) claim(p *sim.Proc, req *Request, m *inMsg, tok *am.Token) {
	dst := c.bind(req, m)
	if m.freeLen > 0 {
		c.nd.Memcpy(p, copy(dst, m.data))
		if tok != nil {
			c.replyFrees(p, *tok, m.src, m.freeOff, m.freeLen)
		} else {
			c.queueFree(p, m.src, m.freeOff, m.freeLen)
		}
	}
	if m.rdvID == 0 {
		req.done = true
		return
	}
	// A prefix still in flight lands in the slot's front (see bufStore);
	// the remainder is stored behind it.
	req.slot = c.allocSlot()
	c.nd.Mem.Replace(req.slot, dst)
	c.rdvRecv[rdvKey{src: m.src, id: m.rdvID}] = req
	if tok != nil {
		c.ep.Reply(p, *tok, c.sys.h.cts, m.rdvID, uint32(req.slot), 0, 0)
	} else {
		c.ep.Request(p, m.src, c.sys.h.cts, m.rdvID, uint32(req.slot), 0, 0)
	}
}

func (c *Comm) allocSlot() int {
	if n := len(c.slotFree); n > 0 {
		s := c.slotFree[n-1]
		c.slotFree = c.slotFree[:n-1]
		return s
	}
	// Pool exhausted: grow (slot ids are local to this node, so growth
	// does not need to stay symmetric across ranks).
	return c.nd.Mem.Add(nil)
}

func (c *Comm) releaseSlot(slot int) {
	c.nd.Mem.Replace(slot, nil)
	c.slotFree = append(c.slotFree, slot)
}

// queueFree records a buffered-region extent to give back to src's
// allocator. Unoptimized MPI-AM sends one free message per buffer;
// optimized batches several frees per message (§4.2).
func (c *Comm) queueFree(p *sim.Proc, src, off, ln int) {
	rel := off - c.regionBase(src)
	c.pendFrees[src].Push(freeEntry{off: rel, ln: ln})
	c.nFrees++
	if !c.sys.Opt.Optimized || c.pendFrees[src].Len() >= 4 {
		c.flushFreesTo(p, src)
	}
}

// popFree takes the oldest pending free off fs, packed for the wire.
func (c *Comm) popFree(fs *ring.Ring[freeEntry]) uint32 {
	f := fs.Pop()
	c.nFrees--
	return packFree(f.off, f.ln)
}

// flushFreesTo sends every pending free for src, four per request. A free
// queued by a handler that runs inside one of those requests' polls is sent
// too.
func (c *Comm) flushFreesTo(p *sim.Proc, src int) {
	fs := &c.pendFrees[src]
	for fs.Len() > 0 {
		var words [4]uint32
		for k := 0; k < 4 && fs.Len() > 0; k++ {
			words[k] = c.popFree(fs)
		}
		c.ep.Request(p, src, c.sys.h.bufFree, words[0], words[1], words[2], words[3])
	}
}

// peerError converts an AM-layer failure on traffic to peer into the typed
// MPI error. The AM error handler fires before any call returns an error, so
// peerErrs normally already holds the entry; the wrap is a fallback.
func (c *Comm) peerError(peer int, cause error) error {
	if err := c.peerErrs[peer]; err != nil {
		return err
	}
	return &Error{Code: ErrPeerDead, Rank: c.Rank(), Peer: peer, Cause: cause}
}

// Wait blocks until req completes, driving the progress engine — or until
// the operation can provably never complete (peer dead, deadline passed), in
// which case it returns the typed error instead of spinning forever. The
// error is sticky on the request.
func (c *Comm) Wait(p *sim.Proc, req *Request) (Status, error) {
	for !req.done {
		if err := c.expired(req); err != nil {
			return req.status, err
		}
		c.progressWait(p)
	}
	return c.result(req)
}

// drainSends is MPI-F's blocking-send step; an MPI-AM send needs none.
func (c *Comm) drainSends(p *sim.Proc) {}
