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

// server is one server node's state: the shard replicas it hosts, the
// pending invalidation pushes, and the operation counters. All handlers
// run inside the node's Poll and only Reply (the GAM handler rule); the
// steady-state path performs no heap allocations — shard maps are
// pre-sized, replies are value messages on warmed rings, and the
// invalidation ring is warmed by its first few pushes.
type server struct {
	svc    *Service
	id     int
	ep     *am.Endpoint
	shards []*shard // indexed by global shard id; nil when not hosted

	push       bool // track lease holders and push invalidations
	invalq     ring.Ring[invalEnt]
	clientDone []bool // per client node: done announcement received
	done       int    // done announcements received (one per client node)

	gets, locks, lockDenied, commits, deletes, unlocks     int64
	invalsSent, invalsDropped, holderOverflows, commitDups int64
	batchRounds, combined                                  int64
}

func newServer(svc *Service, id int, ep *am.Endpoint) *server {
	s := &server{
		svc:        svc,
		id:         id,
		ep:         ep,
		shards:     make([]*shard, svc.numShards),
		push:       !svc.cfg.CacheOff && !svc.cfg.NoInvalPush,
		clientDone: make([]bool, svc.cfg.ClientNodes),
	}
	// Pre-size each hosted shard's store for its expected share of the
	// keyspace with generous headroom, so map growth never happens on the
	// handler path.
	per := svc.cfg.Keys/svc.numShards*3 + 64
	for sh := 0; sh < svc.numShards; sh++ {
		if svc.hostsShard(id, sh) {
			s.shards[sh] = newShard(per)
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
			s.invalsDropped++
			continue
		}
		if err := s.ep.Request(p, s.svc.cfg.Servers+int(e.cl), s.svc.hInval, e.key, e.ver); err != nil {
			s.invalsDropped++
			continue
		}
		s.invalsSent++
	}
}

// shardFor locates the hosted shard for key; a miss is a routing bug, and
// in a deterministic simulation a panic is the loudest way to surface it.
func (s *server) shardFor(key uint32) *shard {
	sh := s.shards[s.svc.shardOf(key)]
	if sh == nil {
		panic("kv: request routed to a server not hosting the key's shard")
	}
	return sh
}

// registerHolder records the requesting client as a lease holder of key.
// The server-side expiry starts at the current (reply) time, which is
// strictly after the client's own lease basis (its dispatch time), so
// skipping an "expired" holder can never skip a client still inside its
// lease. A full set stops tracking: the untracked cache falls back to
// plain lease expiry, which correctness never depends on anyway.
func (s *server) registerHolder(now sim.Time, sh *shard, key uint32, src int) {
	cli := uint16(src - s.svc.cfg.Servers)
	h := sh.holders[key]
	exp := now + s.svc.cfg.Lease
	free := -1
	for i := 0; i < int(h.n); i++ {
		if h.cl[i] == cli {
			h.exp[i] = exp
			sh.holders[key] = h
			return
		}
		if h.exp[i] <= now && free < 0 {
			free = i
		}
	}
	switch {
	case int(h.n) < s.svc.cfg.HolderCap:
		h.cl[h.n], h.exp[h.n] = cli, exp
		h.n++
	case free >= 0:
		h.cl[free], h.exp[free] = cli, exp
	default:
		s.holderOverflows++
		return // nothing written back; the set is full of live holders
	}
	sh.holders[key] = h
}

// bump advances key's version for this commit unless it is a replay (a
// failover re-commit of the same operation — commits must stay idempotent
// in the version domain too, or replicas would diverge). The dedup id
// pairs the op's txn word (client node + slot) with the slot generation;
// together they name one operation uniquely even as slots are reused, and
// a batched member carries the same id it would use individually, so a
// batch that aborts mid-replication can re-drive members solo without
// double-bumping replicas that already applied the batch.
//
// A genuine bump queues invalidation pushes to the key's tracked lease
// holders. writer is the client index whose own completion already carries
// the version (individual commits: the reply's third word); it is excluded
// from the push. Batched commits pass writer < 0 — the one-word batch reply
// cannot carry per-key versions, so the writer learns them from its own
// push like everyone else.
func (s *server) bump(now sim.Time, sh *shard, key uint32, opID uint64, writer int32) uint32 {
	m := sh.meta[key]
	if m.lastOp == opID {
		s.commitDups++
		return m.ver
	}
	m.ver++
	m.lastOp = opID
	m.verAt = now
	sh.meta[key] = m
	if s.push {
		queued, live := 0, 0
		if h, ok := sh.holders[key]; ok {
			for i := 0; i < int(h.n); i++ {
				if h.exp[i] <= now {
					continue
				}
				live++
				if int32(h.cl[i]) == writer {
					continue
				}
				s.invalq.Push(invalEnt{cl: h.cl[i], key: key, ver: m.ver})
				queued++
			}
			delete(sh.holders, key)
		}
		if writer < 0 {
			if f := s.svc.batchInvalCheck; f != nil {
				f(key, queued, live)
			}
		}
	}
	return m.ver
}

// opDedupID is the version-domain dedup id shared by the individual and
// batched commit paths: the op's txn word paired with its slot generation.
func opDedupID(txn, gen uint32) uint64 { return uint64(txn)<<16 | uint64(gen) }

// opWriter extracts the writing client's index from an individual txn word.
func opWriter(txn uint32) int32 { return int32(uint16(txn >> 12 & 0x7FFFF)) }

// onGet: args [reqID, key] -> reply [reqID, status, value, version]. The
// reply stamps the key's commit version and implicitly grants a Lease-long
// read lease; unless the cache is disabled the client is recorded as a
// holder so the next commit can push an invalidation.
func (s *server) onGet(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	reqID, key := args[0], args[1]
	s.gets++
	sh := s.shardFor(key)
	v, ok := sh.store[key]
	st := StatusOK
	if !ok {
		st = StatusNotFound
	}
	if s.push {
		s.registerHolder(p.Now(), sh, key, tok.Src)
	}
	ep.Reply(p, tok, s.svc.hResp, reqID, st, v, sh.meta[key].ver)
}

// onLock: args [reqID, txn, key] -> reply [reqID, OK|Locked, 0].
func (s *server) onLock(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	reqID, txn, key := args[0], args[1], args[2]
	s.locks++
	st := StatusOK
	if !s.shardFor(key).tryLock(key, txn) {
		st = StatusLocked
		s.lockDenied++
	}
	ep.Reply(p, tok, s.svc.hResp, reqID, st, 0)
}

// onCommitPut: args [reqID, txn, key, val] -> reply [reqID, OK, version].
// The value is applied unconditionally: the client only commits while
// holding the key's primary latch, which serializes writers, and
// re-commits after a failover are idempotent (bump dedups the version).
// The latch (held at the primary only) is released by a separate unlock
// once every replica has acknowledged.
func (s *server) onCommitPut(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	reqID, txn, key, val := args[0], args[1], args[2], args[3]
	s.commits++
	sh := s.shardFor(key)
	ver := s.bump(p.Now(), sh, key, opDedupID(txn, reqID>>16), opWriter(txn))
	sh.store[key] = val
	ep.Reply(p, tok, s.svc.hResp, reqID, StatusOK, ver)
}

// onCommitDel: args [reqID, txn, key] — the delete-flavored commit. The
// key's version keeps climbing through the delete (meta is kept outside
// the store), so caches holding the old value are invalidated exactly like
// a put, and the NotFound they re-read is itself cacheable.
func (s *server) onCommitDel(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	reqID, txn, key := args[0], args[1], args[2]
	s.deletes++
	sh := s.shardFor(key)
	ver := s.bump(p.Now(), sh, key, opDedupID(txn, reqID>>16), opWriter(txn))
	delete(sh.store, key)
	ep.Reply(p, tok, s.svc.hResp, reqID, StatusOK, ver)
}

// onUnlock: args [reqID, txn, key] -> reply [reqID, OK, 0].
func (s *server) onUnlock(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
	reqID, txn, key := args[0], args[1], args[2]
	s.unlocks++
	s.shardFor(key).unlock(key, txn)
	ep.Reply(p, tok, s.svc.hResp, reqID, StatusOK, 0)
}

// Batch handlers (see wire.go for the formats). Each runs as a bulk-store
// completion: the op vector has already landed in this server's staging
// segment, so the handler parses it in place and sends one short reply for
// the whole round — the per-op work is map operations only, no sends.

// onLockBatch: a lock-all round at the shard primary. Every key is try-
// locked under the batch txn (idempotent for duplicate keys within the
// batch); the reply's payload is the grant bitmap, so partial denials fail
// only the denied members. The deny+retry latch discipline is unchanged —
// nothing ever queues on a latch.
func (s *server) onLockBatch(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, nbytes int, arg uint32) {
	mem := ep.Node().Mem.Slice(addr, nbytes)
	k := nbytes / 4
	shID := int(arg>>4) & 0xFFF
	sh := s.shards[shID]
	if sh == nil {
		panic("kv: batch routed to a server not hosting the shard")
	}
	btxn := batchTxn(tok.Src-s.svc.cfg.Servers, shID)
	s.batchRounds++
	var mask uint32
	for i := 0; i < k; i++ {
		s.locks++
		if sh.tryLock(getU32(mem[4*i:]), btxn) {
			mask |= 1 << i
		} else {
			s.lockDenied++
		}
	}
	ep.Reply(p, tok, s.svc.hBResp, arg, mask)
}

// onCommitBatch: a commit-all round at one replica. Same-key puts combine
// last-writer-wins: only the batch's final put to a key is applied, and the
// version bumps once for it — every replica sees the same vector, so the
// survivor (and the resulting meta) is identical everywhere. Each applied
// op bumps under its member dedup id with writer < 0, so the invalidation
// push goes to all tracked holders including the writer (the batch reply
// cannot carry per-key versions).
func (s *server) onCommitBatch(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, nbytes int, arg uint32) {
	mem := ep.Node().Mem.Slice(addr, nbytes)
	k := nbytes / stageOpBytes
	sh := s.shards[int(arg>>4)&0xFFF]
	now := p.Now()
	for i := 0; i < k; i++ {
		key := getU32(mem[i*stageOpBytes:])
		superseded := false
		for j := i + 1; j < k; j++ {
			if getU32(mem[j*stageOpBytes:]) == key {
				superseded = true
				break
			}
		}
		if superseded {
			s.combined++
			continue
		}
		val := getU32(mem[i*stageOpBytes+4:])
		txn := getU32(mem[i*stageOpBytes+8:])
		gen := getU32(mem[i*stageOpBytes+12:])
		s.commits++
		s.bump(now, sh, key, opDedupID(txn, gen), -1)
		sh.store[key] = val
	}
	ep.Reply(p, tok, s.svc.hBResp, arg, 0)
}

// onUnlockBatch: release the batch's granted latches (stale or duplicate
// unlocks are no-ops, exactly like the individual path).
func (s *server) onUnlockBatch(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, nbytes int, arg uint32) {
	mem := ep.Node().Mem.Slice(addr, nbytes)
	k := nbytes / 4
	shID := int(arg>>4) & 0xFFF
	sh := s.shards[shID]
	btxn := batchTxn(tok.Src-s.svc.cfg.Servers, shID)
	for i := 0; i < k; i++ {
		s.unlocks++
		sh.unlock(getU32(mem[4*i:]), btxn)
	}
	ep.Reply(p, tok, s.svc.hBResp, arg, 0)
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
