package kv

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/ring"
	"spam/internal/sim"
)

// invalEnt is one queued invalidation push: tell client cl that key is now
// at version ver. Handlers may only reply (the GAM rule), so commits queue
// these and the server loop sends them between Polls.
type invalEnt struct {
	cl  uint16
	key uint32
	ver uint32
}

// server is one server node's state: which shard replicas it hosts, the
// pending invalidation pushes, and the operation counters. All handlers
// run inside the node's Poll and only Reply (the GAM handler rule); the
// steady-state path performs no heap allocations — the per-key records are
// one table built with the Service, replies are value messages on warmed
// rings, and the invalidation ring is warmed by its first few pushes.
type server struct {
	svc *Service
	id  int
	ep  *am.Endpoint
	rep []int8 // per global shard: the replica this server hosts, -1 when none

	push       bool // track lease holders and push invalidations
	invalq     ring.Ring[invalEnt]
	clientDone []bool // per client node: done announcement received
	done       int    // done announcements received (one per client node)

	vec [maxBatchOps]wireOp // decode scratch: handlers never nest
	ops ServerOps
}

func newServer(svc *Service, id int, ep *am.Endpoint) *server {
	s := &server{
		svc:        svc,
		id:         id,
		ep:         ep,
		rep:        make([]int8, svc.numShards),
		push:       !svc.cfg.CacheOff,
		clientDone: make([]bool, svc.cfg.ClientNodes),
	}
	for sh := range s.rep {
		s.rep[sh] = -1
		for i := 0; i < svc.cfg.Replicas; i++ {
			if svc.replicaSrv(sh, i) == id {
				s.rep[sh] = int8(i)
			}
		}
	}
	return s
}

// run polls until every client node has announced completion, draining the
// invalidation queue between Polls, then drains the endpoint. A
// fail-stopped server detaches at its next Poll.
func (s *server) run(p *sim.Proc, n *hw.Node) {
	for s.done < s.svc.cfg.ClientNodes {
		s.ep.PollWait(p, 0)
		s.drainInvals(p)
	}
	s.drainInvals(p)
	s.ep.Drain(p, 0)
}

// drainInvals sends the queued invalidation pushes. It runs in the server
// loop only (never in a handler): Request blocks until injected and polls,
// which can invoke commit handlers that queue more pushes — the loop
// drains those too. A push to a finished client is dropped: its cache
// serves no one, and correctness rides the lease either way.
func (s *server) drainInvals(p *sim.Proc) {
	for s.invalq.Len() > 0 {
		e := s.invalq.Pop()
		if s.clientDone[e.cl] {
			s.ops.InvalsDropped++
			continue
		}
		if err := s.ep.Request(p, s.svc.cfg.Servers+int(e.cl), s.svc.hInval, e.key, e.ver); err != nil {
			s.ops.InvalsDropped++
			continue
		}
		s.ops.Invals++
	}
}

// recFor locates this server's record of key; a key whose shard it does not
// host is a routing bug, and in a deterministic simulation a panic is the
// loudest way to surface it.
func (s *server) recFor(key uint32) *record {
	i := s.rep[s.svc.shardOf(key)]
	if i < 0 {
		panic("kv: request routed to a server not hosting the key's shard")
	}
	return s.svc.rec(key, int(i))
}

// registerHolder records the requesting client as a lease holder of key.
// The server-side expiry starts at the current (reply) time, which is
// strictly after the client's own lease basis (its dispatch time), so
// skipping an "expired" holder can never skip a client still inside its
// lease. A full set stops tracking: the untracked cache falls back to
// plain lease expiry, which correctness never depends on anyway.
func (s *server) registerHolder(now sim.Time, r *record, src int) {
	cli := uint16(src - s.svc.cfg.Servers)
	exp := now + s.svc.cfg.Lease
	free := -1
	for i := 0; i < int(r.n); i++ {
		if r.cl[i] == cli {
			r.exp[i] = exp
			return
		}
		if r.exp[i] <= now && free < 0 {
			free = i
		}
	}
	switch {
	case int(r.n) < holderMax:
		r.cl[r.n], r.exp[r.n] = cli, exp
		r.n++
	case free >= 0:
		r.cl[free], r.exp[free] = cli, exp
	default:
		s.ops.HolderOverflows++ // the set is full of live holders
	}
}

// bump advances key's version for this commit unless it is a replay (a
// failover re-commit of the same operation — commits must stay idempotent
// in the version domain too, or replicas would diverge). opID names one
// operation uniquely even as slots are reused and is the same whichever
// transaction carries the op, so a vector that aborts mid-replication can
// re-drive its members without double-bumping replicas that already applied
// them.
//
// A genuine bump queues invalidation pushes to the key's tracked lease
// holders, except writer: the client whose own commit reply already carries
// the version (one-op vectors). Staged vectors pass writer < 0 — their
// one-word reply cannot carry per-key versions, so the writer learns them
// from its own push like everyone else.
func (s *server) bump(now sim.Time, r *record, key uint32, opID uint64, writer int) uint32 {
	if r.lastOp == opID {
		s.ops.CommitDups++
		return r.ver
	}
	r.ver++
	r.lastOp = opID
	r.verAt = now
	if s.push {
		queued, live := 0, 0
		for i := 0; i < int(r.n); i++ {
			if r.exp[i] <= now {
				continue
			}
			live++
			if int(r.cl[i]) == writer {
				continue
			}
			s.invalq.Push(invalEnt{cl: r.cl[i], key: key, ver: r.ver})
			queued++
		}
		r.n = 0
		if writer < 0 {
			if f := s.svc.batchInvalCheck; f != nil {
				f(key, queued, live)
			}
		}
	}
	return r.ver
}

// onGet: args [id, key] -> reply [id, status, value, version]. The reply
// stamps the key's commit version and implicitly grants a Lease-long read
// lease; unless the cache is disabled the client is recorded as a holder so
// the next commit can push an invalidation.
func (s *server) onGet(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	id, key := args[0], args[1]
	s.ops.Gets++
	r := s.recFor(key)
	st := StatusOK
	if !r.present {
		st = StatusNotFound
	}
	if s.push {
		s.registerHolder(p.Now(), r, tok.Src)
	}
	ep.Reply(p, tok, s.svc.hResp, id, st, r.val, r.ver)
}

// The three write rounds, each over a vector of one shard's ops. They touch
// records only; the handlers below decode a vector, run its round and send
// the one reply.

// lock try-locks every key for owner and returns the grant bitmap, so a
// partial denial fails only the denied ops. Duplicate keys in one vector
// re-grant idempotently. Nothing ever queues on a latch.
func (s *server) lock(owner uint32, ops []wireOp) (grant uint32) {
	for i, op := range ops {
		s.ops.Locks++
		if s.recFor(op.key).tryLock(owner) {
			grant |= 1 << i
		} else {
			s.ops.LockDenied++
		}
	}
	return grant
}

// commit applies the vector at this replica and returns the last op's new
// version. The client commits only while it holds the keys' primary latches,
// which serialize writers, so ops apply unconditionally and replicas
// converge; the latch is released by a separate unlock once every replica
// acknowledged. Same-key ops combine last-writer-wins: only the final one is
// applied, with one version bump — every replica sees the same vector, so
// the survivor and the resulting metadata are identical everywhere. A delete
// keeps the version climbing (it clears the value, not the metadata), so
// caches are invalidated exactly as by a put and the NotFound they re-read is
// cacheable.
func (s *server) commit(now sim.Time, cli, writer int, ops []wireOp) (ver uint32) {
next:
	for i, op := range ops {
		for _, later := range ops[i+1:] {
			if later.key == op.key {
				s.ops.Combined++
				continue next
			}
		}
		r := s.recFor(op.key)
		ver = s.bump(now, r, op.key, uint64(cli)<<32|uint64(op.id), writer)
		if op.id&opDel != 0 {
			s.ops.Deletes++
			r.val, r.present = 0, false
		} else {
			s.ops.Commits++
			r.val, r.present = op.val, true
		}
	}
	return ver
}

// unlock releases the latches owner holds (stale or duplicate unlocks are
// no-ops).
func (s *server) unlock(owner uint32, ops []wireOp) {
	for _, op := range ops {
		s.ops.Unlocks++
		s.recFor(op.key).unlock(owner)
	}
}

// The short handlers carry a one-op vector in the request words (wire.go).

func (s *server) onLock(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	s.vec[0] = wireOp{key: args[2]}
	ep.Reply(p, tok, s.svc.hResp, args[0], s.lock(args[1], s.vec[:1]), 0)
}

func (s *server) onCommit(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	s.vec[0] = wireOp{key: args[2], id: args[1]}
	if len(args) > 3 {
		s.vec[0].val = args[3]
	}
	cli := tok.Src - s.svc.cfg.Servers
	ep.Reply(p, tok, s.svc.hResp, args[0], 0, s.commit(p.Now(), cli, cli, s.vec[:1]))
}

func (s *server) onUnlock(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	s.vec[0] = wireOp{key: args[2]}
	s.unlock(args[1], s.vec[:1])
	ep.Reply(p, tok, s.svc.hResp, args[0], 0, 0)
}

// onVector is the bulk-store completion for a staged vector: the records
// have landed in this server's staging segment and arg is the request id.
func (s *server) onVector(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, nbytes int, arg uint32) {
	_, ti, _, phase := splitReqID(arg)
	ops := decodeOps(s.vec[:], phase, ep.Node().Mem.Slice(addr, nbytes))
	cli := tok.Src - s.svc.cfg.Servers
	var grant uint32
	if len(ops) > 0 {
		switch phase {
		case phLock:
			grant = s.lock(latchOwner(cli, ti), ops)
		case phCommit:
			s.commit(p.Now(), cli, -1, ops)
		case phUnlock:
			s.unlock(latchOwner(cli, ti), ops)
		}
	}
	ep.Reply(p, tok, s.svc.hResp, arg, grant)
}

// onDone: args [clientIdx]. No reply — the request's delivery is already
// reliable, and the client is only announcing termination. Pushes still
// queued for that client are dropped at drain time.
func (s *server) onDone(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	if cl := int(args[0]); cl < len(s.clientDone) && !s.clientDone[cl] {
		s.clientDone[cl] = true
		s.done++
	}
}
