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
		region := mem[envBytes:]
		src := tok.Src
		c.node().ComputeUnscaled(p, costMatch)

		if rdvID == 0 {
			if req := c.matchPosted(src, tag); req != nil {
				n := copy(req.buf, region[:size])
				c.node().Memcpy(p, n)
				req.status = Status{Source: src, Tag: tag, Size: size}
				req.done = true
				// The reply both signals flow control and frees buffer
				// space — batched with other pending frees when optimized.
				c.replyFrees(p, tok, src, addr.Off, nbytes)
				return
			}
			c.unexpected = append(c.unexpected, &inMsg{
				src: src, tag: tag, size: size, buffered: true,
				region: region, freeOff: addr.Off, freeLen: nbytes,
			})
			return
		}

		// Hybrid prefix landing behind its RTS (the RTS always precedes it
		// on the ordered request channel).
		key := rdvKey{src: src, id: rdvID}
		if req := c.rdvRecv[key]; req != nil {
			// The receive was already posted and CTS'd at RTS time; fill
			// in the prefix and free its buffer space.
			n := copy(req.buf[:prefix], region[:prefix])
			c.node().Memcpy(p, n)
			c.replyFrees(p, tok, src, addr.Off, nbytes)
			return
		}
		// The RTS is parked on the unexpected list: attach the prefix.
		for _, m := range c.unexpected {
			if m.src == src && m.rdvID == rdvID {
				m.buffered = true
				m.region = region
				m.freeOff = addr.Off
				m.freeLen = nbytes
				m.prefix = prefix
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
				c.node().ComputeUnscaled(p, costFree)
			}
		}
	})

	// Rendezvous request-to-send (args: tag, size, rdvID, prefixLen).
	s.h.rts = s.AM.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		c := ep.Data.(*Comm)
		tag := int(int32(args[0]))
		size := int(args[1])
		rdvID := args[2]
		prefix := int(args[3])
		src := tok.Src
		c.node().ComputeUnscaled(p, costMatch)
		if req := c.matchPosted(src, tag); req != nil {
			slot := c.allocSlot()
			c.node().Mem.Replace(slot, req.buf[prefix:size])
			req.status = Status{Source: src, Tag: tag, Size: size}
			req.slot = slot
			c.rdvRecv[rdvKey{src: src, id: rdvID}] = req
			ep.Reply(p, tok, c.sys.h.cts, rdvID, uint32(slot), 0, 0)
			return
		}
		c.unexpected = append(c.unexpected, &inMsg{
			src: src, tag: tag, size: size, rdvID: rdvID, prefix: prefix})
	})

	// Clear-to-send back at the sender: queue the store for the next
	// polling MPI call (the handler itself may not transfer — §4.1).
	s.h.cts = s.AM.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		c := ep.Data.(*Comm)
		rdvID := args[0]
		req := c.rdvSend[rdvID]
		if req == nil {
			panic("mpi: CTS for unknown rendezvous")
		}
		delete(c.rdvSend, rdvID)
		req.ctsSlot = int(args[1])
		if off, ln, ok := unpackFree(args[2]); ok {
			c.alloc[tok.Src].release(off, ln)
		}
		c.pendCTS.Push(pendingCTS{req: req})
	})

	// Rendezvous payload landed directly in the user buffer.
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
		req := c.pendCTS.Pop().req
		if err := c.ep.StoreAsync(p, req.dst, hw.Addr{Seg: req.ctsSlot, Off: 0},
			req.data[req.prefix:], c.sys.h.rdvData, req.rdvID,
			func(q *sim.Proc, e *am.Endpoint) { req.done = true }); err != nil {
			req.err = c.peerError(req.dst, err)
		}
	}
	c.tick += polls
	if c.tick%64 == 0 {
		for src := 0; src < c.Size(); src++ {
			c.flushFreesTo(p, src)
		}
	}
}
