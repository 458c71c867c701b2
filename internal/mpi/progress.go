package mpi

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// registerHandlers installs the five AM handlers of the MPICH ADI core.
func (s *System) registerHandlers() {
	// Buffered [envelope|payload] landed in my buffered region.
	s.h.bufStore = s.AM.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, nbytes int, arg uint32) {
		c := ep.Data.(*Comm)
		mem := ep.Node().Mem.Slice(addr, nbytes)
		tag, size, rdvID, prefix := readEnv(mem)
		m := inMsg{src: tok.Src, tag: tag, size: size, data: mem[envBytes:], freeOff: addr.Off, freeLen: nbytes}
		c.nd.ComputeUnscaled(p, costMatch)

		if rdvID == 0 {
			// A posted receive takes the message; the reply both signals
			// flow control and frees buffer space — batched with other
			// pending frees when optimized.
			if req := c.matchPosted(m.src, tag); req != nil {
				c.claim(p, req, &m, &tok)
				return
			}
			c.unexpected.Push(m)
			return
		}

		// Hybrid prefix landing behind its RTS (the RTS always precedes it
		// on the ordered request channel).
		if req := c.rdvRecv[rdvKey{src: m.src, id: rdvID}]; req != nil {
			// The receive was already posted and CTS'd at RTS time; fill
			// in the front of its slot and free the buffer space.
			n := copy(c.nd.Mem.Slice(hw.Addr{Seg: req.slot}, prefix), m.data)
			c.nd.Memcpy(p, n)
			c.replyFrees(p, tok, m.src, addr.Off, nbytes)
			return
		}
		// The RTS is parked on the unexpected list: attach the prefix.
		for i := range c.unexpected.Len() {
			if u := c.unexpected.At(i); u.src == m.src && u.rdvID == rdvID {
				u.data, u.freeOff, u.freeLen = m.data, m.freeOff, m.freeLen
				return
			}
		}
		panic("mpi: hybrid prefix arrived without its RTS")
	})

	// Buffer-free notification back at the sender.
	s.h.bufFree = s.AM.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		c := ep.Data.(*Comm)
		for _, w := range args {
			if off, ln, ok := unpackFree(w); ok {
				c.alloc[tok.Src].release(off, ln)
				c.nd.ComputeUnscaled(p, costFree)
			}
		}
	})

	// Rendezvous request-to-send (args: tag, size, rdvID, prefixLen). The
	// fourth word is not read: the prefix lands at its slot's front.
	s.h.rts = s.AM.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		c := ep.Data.(*Comm)
		m := inMsg{src: tok.Src, tag: int(int32(args[0])), size: int(args[1]), rdvID: args[2]}
		c.nd.ComputeUnscaled(p, costMatch)
		if req := c.matchPosted(m.src, m.tag); req != nil {
			c.claim(p, req, &m, &tok)
			return
		}
		c.unexpected.Push(m)
	})

	// Clear-to-send back at the sender (args: rdvID, slot, 0, 0; the last
	// two words are not read): queue the store for the next polling MPI
	// call (the handler itself may not transfer — §4.1).
	s.h.cts = s.AM.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		c := ep.Data.(*Comm)
		req := c.takeRdv(args[0])
		req.slot = int(args[1])
		c.pendCTS.Push(req)
	})

	// Rendezvous payload landed in the receive's slot: its buffer, or the
	// discard buffer bind gave a message that does not fit.
	s.h.rdvData = s.AM.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, nbytes int, arg uint32) {
		c := ep.Data.(*Comm)
		key := rdvKey{src: tok.Src, id: arg}
		req := c.rdvRecv[key]
		if req == nil {
			panic("mpi: rendezvous data for unknown receive")
		}
		delete(c.rdvRecv, key)
		c.releaseSlot(req.slot)
		req.done = true
	})
}

// replyFrees sends the am_reply that frees the just-consumed extent, plus
// (optimized) up to three more pending frees for the same sender.
func (c *Comm) replyFrees(p *sim.Proc, tok am.Token, src, absOff, ln int) {
	var words [4]uint32
	words[0] = packFree(absOff-c.regionBase(src), ln)
	k := 1
	if c.sys.Opt.Optimized {
		for fs := &c.pendFrees[src]; k < 4 && fs.Len() > 0; k++ {
			words[k] = c.popFree(fs)
		}
	}
	c.ep.Reply(p, tok, c.sys.h.bufFree, words[0], words[1], words[2], words[3])
}

// progressWait drives everything that cannot run in handler context, for a
// caller blocked on something only a poll or the communicator deadline can
// change (am.PollWait's contract): it polls the AM layer, issues rendezvous
// stores whose CTS has arrived, and ages out batched frees so a
// space-starved sender cannot wedge. With a CTS or a batched free pending,
// the work after the very next poll matters, so it polls once; otherwise
// idle polls are waited out in one call and tick advances by their number,
// which keeps the every-64th-poll free flush on the poll it always fell on.
func (c *Comm) progressWait(p *sim.Proc) {
	if c.pendCTS.Len() > 0 || c.nFrees > 0 {
		c.ep.Poll(p)
		c.afterPolls(p, 1)
		return
	}
	c.afterPolls(p, c.ep.PollWait(p, c.deadline))
}

func (c *Comm) afterPolls(p *sim.Proc, polls int) {
	for c.pendCTS.Len() > 0 {
		req := c.pendCTS.Pop()
		if err := c.ep.StoreAsync(p, req.peer, hw.Addr{Seg: req.slot, Off: req.prefix},
			req.buf[req.prefix:], c.sys.h.rdvData, req.rdvID,
			func(q *sim.Proc, e *am.Endpoint) { req.done = true }); err != nil {
			req.err = c.peerError(req.peer, err)
		}
	}
	c.tick += polls
	if c.tick%64 == 0 {
		for src := 0; src < c.Size(); src++ {
			c.flushFreesTo(p, src)
		}
	}
}
