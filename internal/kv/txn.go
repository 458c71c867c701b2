package kv

import (
	"spam/internal/am"
	"spam/internal/kv/load"
	"spam/internal/ring"
	"spam/internal/sim"
)

// Phases of a transaction. A GET is one read round; every write runs
// lock, commit, unlock (see the package comment).
const (
	phRead uint8 = iota
	phLock
	phCommit
	phUnlock
)

// What finish does with the members once the unlock round drained.
const (
	auComplete uint8 = iota // commit done: terminal success
	auRetry                 // denied, or a server died mid-round: back off and resubmit
	auFail                  // terminal with txn.status (a shard lost every replica)
)

// txnOp is one key of the op vector: member slot si's key number ki.
type txnOp struct {
	si  uint32
	key uint32
	sh  int32
	ki  uint8
	srv int8 // server the lock round asked: the latch holder once granted
}

// txn is one conversation with the servers on behalf of 1..N member slots,
// and the only holder of network state on the client: the op vector, the
// phase, and the bookkeeping of the round in flight. Consecutive ops of one
// shard form a vector; a round sends each vector to the shard's primary
// (lock, unlock) or to every live replica (commit), and drains when every
// destination has answered or died. A coalesced transaction is N PUTs of one
// shard; anything else has one member (whose two Batch keys are two ops), so
// at most one vector of a round is longer than one op and the single staging
// buffer is enough.
type txn struct {
	active     bool
	pendingAdv bool // queued on the ready ring (dedup)
	failed     bool // a peer death resolved part of this round
	phase      uint8
	after      uint8
	status     uint8 // auFail's outcome
	n          uint8 // ops in the vector
	await      int8
	q          int32 // shard queue this transaction keeps busy, -1 = none
	gen        uint32

	// Op bitmaps: latches held; ops of fully granted members (the commit
	// vector); ops whose member already left, denied while holding nothing.
	grant, commit, gone uint32

	tgt  [maxTargets]int8  // sub-request -> server awaiting reply, -1 = resolved
	base [maxTargets]uint8 // sub-request -> first op of the vector it carried
	ops  [maxBatchOps]txnOp
	buf  []byte // staging source of the round's long vector
}

// shardQ is one shard's coalescing queue. While a vector of several PUTs is
// in flight the queue is busy and arrivals accumulate behind it, so the
// vectors grow with the load; a lone PUT does not hold the queue.
type shardQ struct {
	pend     ring.Ring[uint32] // PUT slots waiting for the next flush
	busy     bool
	armed    bool // queued on the flush-deadline ring
	deadline sim.Time
}

// begin claims a transaction in the given first phase.
func (cl *client) begin(phase uint8) uint32 {
	ti := cl.txfree.Pop()
	t := &cl.txns[ti]
	t.active, t.pendingAdv, t.failed = true, false, false
	t.phase, t.n, t.q = phase, 0, -1
	t.gen = (t.gen + 1) & 0x3FFF
	t.grant, t.commit, t.gone = 0, 0, 0
	return ti
}

// addMember appends slot si's keys to the op vector.
func (cl *client) addMember(ti, si uint32) {
	t, s := &cl.txns[ti], &cl.slots[si]
	for k := uint8(0); k < s.nkeys; k++ {
		t.ops[t.n] = txnOp{si: si, key: s.keys[k], sh: int32(cl.svc.shardOf(s.keys[k])), ki: k, srv: -1}
		t.n++
	}
}

// retire frees the transaction; if it kept a shard queue busy, what queued
// up behind it flushes now rather than waiting out a fresh window.
func (cl *client) retire(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	t.active = false
	cl.txfree.Push(ti)
	if t.q >= 0 {
		cl.shardq[t.q].busy = false
		cl.pump(p, uint32(t.q))
	}
}

// enqueue parks a PUT on its shard's queue, flushing at once when a full
// vector is waiting and the queue is free, otherwise arming the flush
// deadline. The window is also the combine window: puts to one hot key
// inside it share a vector and the server applies only the last.
func (cl *client) enqueue(p *sim.Proc, si uint32) {
	sh := uint32(cl.svc.shardOf(cl.slots[si].keys[0]))
	q := &cl.shardq[sh]
	q.pend.Push(si)
	if !q.busy && q.pend.Len() >= cl.svc.cfg.BatchOps {
		cl.flush(p, sh)
		if q.pend.Len() == 0 || q.busy {
			return
		}
	}
	if !q.armed {
		q.armed = true
		q.deadline = p.Now() + cl.svc.cfg.BatchWindow
		cl.armq.Push(sh)
	}
}

// flush starts a transaction over up to BatchOps queued PUTs.
func (cl *client) flush(p *sim.Proc, sh uint32) {
	q := &cl.shardq[sh]
	if q.busy || q.pend.Len() == 0 {
		return
	}
	k := q.pend.Len()
	if k > cl.svc.cfg.BatchOps {
		k = cl.svc.cfg.BatchOps
	}
	ti := cl.begin(phLock)
	for i := 0; i < k; i++ {
		si := q.pend.Pop()
		if k > 1 && cl.slots[si].attempts == 0 {
			cl.st.BatchedPuts++ // distinct ops, not rides: a retry is not recounted
		}
		cl.addMember(ti, si)
	}
	if k > 1 {
		q.busy = true
		cl.txns[ti].q = int32(sh)
	}
	cl.st.WriteBatches++
	cl.st.BatchSize.Observe(int64(k))
	cl.dispatch(p, ti)
}

func (cl *client) pump(p *sim.Proc, sh uint32) {
	for q := &cl.shardq[sh]; !q.busy && q.pend.Len() > 0; {
		cl.flush(p, sh)
	}
}

// primary returns the first live replica of shard sh, or -1.
func (cl *client) primary(sh int) int {
	for i := 0; i < cl.svc.cfg.Replicas; i++ {
		if srv := cl.svc.replicaSrv(sh, i); !cl.dead[srv] {
			return srv
		}
	}
	return -1
}

// reserve checks the per-server in-flight cap for every destination of the
// round about to be sent (all-or-nothing); on failure the transaction parks
// on the deferral ring and the round is retried next loop iteration.
func (cl *client) reserve(ti uint32, dst []int8) bool {
	for _, d := range dst {
		cl.need[d]++
	}
	ok := true
	for _, d := range dst {
		if cl.inflight[d]+cl.need[d] > inflightCap {
			ok = false
		}
		cl.need[d] = 0
	}
	if !ok {
		cl.st.Deferrals++
		cl.defq.Push(ti)
	}
	return ok
}

// resolve accounts sub-request sub as answered or dead.
func (cl *client) resolve(t *txn, sub int) {
	cl.inflight[t.tgt[sub]]--
	t.tgt[sub] = -1
	t.await--
}

// dispatch sends the round of the transaction's current phase. It is called
// from the main loop only (never from handlers), so it may issue blocking
// Requests and Stores.
func (cl *client) dispatch(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	mask := uint32(1)<<t.n - 1
	switch t.phase {
	case phCommit:
		mask = t.commit
	case phUnlock:
		mask = t.grant
	}
	// Plan: one (destination, op range) per vector to send.
	var dst [maxTargets]int8
	var lo, hi [maxTargets]uint8
	nd := 0
	for i := 0; i < int(t.n); {
		j := i + 1
		for j < int(t.n) && t.ops[j].sh == t.ops[i].sh {
			j++
		}
		if mask>>i&(1<<(j-i)-1) != 0 {
			sh, first := int(t.ops[i].sh), nd
			switch t.phase {
			case phRead, phLock:
				if srv := cl.primary(sh); srv >= 0 {
					dst[nd] = int8(srv)
					nd++
					for k := i; k < j; k++ {
						t.ops[k].srv = int8(srv)
					}
				}
			case phCommit:
				for r := 0; r < cl.svc.cfg.Replicas; r++ {
					if srv := cl.svc.replicaSrv(sh, r); !cl.dead[srv] {
						dst[nd] = int8(srv)
						nd++
					}
				}
			case phUnlock:
				if srv := t.ops[i].srv; !cl.dead[srv] {
					dst[nd] = srv
					nd++
				}
			}
			if nd == first && t.phase != phUnlock {
				cl.unavailable(p, ti)
				return
			}
			for d := first; d < nd; d++ {
				lo[d], hi[d] = uint8(i), uint8(j)
			}
		}
		i = j
	}
	if nd == 0 {
		cl.finish(p, ti) // nothing left to unlock: the latches died with their server
		return
	}
	if !cl.reserve(ti, dst[:nd]) {
		return
	}
	t.failed = false
	switch t.phase {
	case phRead:
		cl.slots[t.ops[0].si].sentAt = p.Now() // lease basis: at or before any server-side read
	case phLock:
		t.grant = 0
		for i := 0; i < int(t.n); i++ {
			if t.ops[i].ki == 0 {
				cl.slots[t.ops[i].si].attempts++
			}
		}
	}
	owner := latchOwner(cl.idx, ti)
	for d := 0; d < nd; d++ {
		vec := cl.vec[:0]
		for k := int(lo[d]); k < int(hi[d]); k++ {
			if mask&(1<<k) == 0 {
				continue
			}
			if len(vec) == 0 {
				t.base[d] = uint8(k)
			}
			op := &t.ops[k]
			s := &cl.slots[op.si]
			vec = append(vec, wireOp{key: op.key, val: s.val, id: opID(op.si, s.gen, s.op == load.OpDelete)})
		}
		srv := int(dst[d])
		t.tgt[d] = dst[d]
		t.await++
		cl.inflight[srv]++
		id := reqID(t.gen, ti, d, t.phase)
		var err error
		op := vec[0]
		switch {
		case len(vec) > 1:
			err = cl.ep.StoreAsync(p, srv, cl.stageAddr(ti), encodeOps(t.buf, t.phase, vec), cl.svc.hVector, id, nil)
		case t.phase == phRead:
			err = cl.ep.Request(p, srv, cl.svc.hGet, id, op.key)
		case t.phase == phLock:
			err = cl.ep.Request(p, srv, cl.svc.hLock, id, owner, op.key)
		case t.phase == phUnlock:
			err = cl.ep.Request(p, srv, cl.svc.hUnlock, id, owner, op.key)
		case op.id&opDel != 0:
			err = cl.ep.Request(p, srv, cl.svc.hCommit, id, op.id, op.key)
		default:
			err = cl.ep.Request(p, srv, cl.svc.hCommit, id, op.id, op.key, op.val)
		}
		// A send error means the peer was declared dead in the send path:
		// the sub-request resolves as failed unless the death handler beat
		// us to it.
		if err != nil && t.tgt[d] == dst[d] {
			cl.resolve(t, d)
			t.failed = true
		}
	}
	if t.await == 0 {
		cl.markReady(ti)
	}
}

// unavailable ends a transaction one of whose shards has no live replica
// left. Before anything is locked the members fail typed at once; between
// lock and commit the latches still held at other shards are released first.
func (cl *client) unavailable(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	switch t.phase {
	case phRead:
		si := t.ops[0].si
		cl.retire(p, ti)
		cl.finishRead(p, si, StatusUnavailable)
	case phLock:
		t.after, t.status = auFail, uint8(StatusUnavailable)
		cl.finish(p, ti)
	default:
		t.status = uint8(StatusUnavailable)
		cl.unlockThen(p, ti, auFail)
	}
}

// markReady queues the transaction for a phase transition in the main loop
// (handlers must not send, so they flag and return).
func (cl *client) markReady(ti uint32) {
	t := &cl.txns[ti]
	if !t.pendingAdv {
		t.pendingAdv = true
		cl.ready.Push(ti)
	}
}

// onResp is the reply handler of every round: route by the request id,
// account the resolved sub-request, and flag the transaction when the round
// has drained. A reply whose sub-request a peer death already resolved, or
// whose transaction moved on, is dropped.
func (cl *client) onResp(args []uint32) {
	gen, ti, sub, phase := splitReqID(args[0])
	if int(ti) >= len(cl.txns) || sub >= maxTargets {
		return
	}
	t := &cl.txns[ti]
	if !t.active || t.gen != gen || t.phase != phase || t.tgt[sub] < 0 {
		return
	}
	cl.resolve(t, sub)
	op := &t.ops[t.base[sub]]
	switch phase {
	case phRead:
		s := &cl.slots[op.si]
		s.status, s.val, s.ver = uint8(args[1]), args[2], args[3]
	case phLock:
		t.grant |= args[1] << t.base[sub]
	case phCommit:
		// A one-op commit reply carries the key's new version; keep the max
		// over replicas so the write completion can raise the cache floor.
		if s := &cl.slots[op.si]; len(args) > 2 && args[2] > s.vers[op.ki] {
			s.vers[op.ki] = args[2]
		}
	}
	if t.await == 0 {
		cl.markReady(ti)
	}
}

// advance runs the phase transition of a drained round.
func (cl *client) advance(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	if !t.active || !t.pendingAdv {
		return
	}
	t.pendingAdv = false
	if t.await > 0 {
		return // flagged mid-dispatch; the last resolver re-flags
	}
	switch t.phase {
	case phRead:
		cl.readDone(p, ti)
	case phLock:
		cl.lockDone(p, ti)
	case phCommit:
		cl.commitDone(p, ti)
	case phUnlock:
		cl.finish(p, ti)
	}
}

func (cl *client) readDone(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	si := t.ops[0].si
	if t.failed {
		cl.slots[si].failedOver = true
		cl.dispatch(p, ti) // re-route to the next live replica
		return
	}
	cl.retire(p, ti)
	cl.finishRead(p, si, uint32(cl.slots[si].status))
}

// lockDone sorts the members by what the lock round granted them. A fully
// granted member commits. A denied one holding nothing backs off at once —
// a partial denial fails only the denied members of a coalesced vector. One
// holding part of its keys (a Batch) backs off after the unlock round.
func (cl *client) lockDone(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	t.grant &= uint32(1)<<t.n - 1
	if t.failed {
		// A primary died before answering: its latches died with it, and
		// what it granted is unknowable. Release what the live ones hold
		// and redo the whole write against the survivors.
		cl.failOver(t)
		cl.unlockThen(p, ti, auRetry)
		return
	}
	for i := 0; i < int(t.n); {
		nk := int(cl.slots[t.ops[i].si].nkeys)
		m := (uint32(1)<<nk - 1) << i
		switch t.grant & m {
		case m:
			t.commit |= m
		case 0:
			cl.st.LockRetries++
			t.gone |= m
			cl.scheduleRetry(p, t.ops[i].si)
		default:
			cl.st.LockRetries++
		}
		i += nk
	}
	if t.commit == 0 {
		cl.unlockThen(p, ti, auRetry)
		return
	}
	// Count the puts a later same-key member supersedes: the servers'
	// combining is this same last-writer-wins scan.
	for i := 0; i < int(t.n); i++ {
		if t.commit&(1<<i) == 0 {
			continue
		}
		for j := i + 1; j < int(t.n); j++ {
			if t.commit&(1<<j) != 0 && t.ops[j].key == t.ops[i].key {
				cl.st.CombinedPuts++
				break
			}
		}
	}
	t.phase = phCommit
	cl.dispatch(p, ti)
}

// commitDone: every live replica applied the vector, or one died mid-commit
// and the members redo the write against the survivors (commits are
// idempotent). Either way the latches go first.
func (cl *client) commitDone(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	if t.failed {
		cl.failOver(t)
		cl.unlockThen(p, ti, auRetry)
		return
	}
	cl.unlockThen(p, ti, auComplete)
}

func (cl *client) failOver(t *txn) {
	for i := 0; i < int(t.n); i++ {
		cl.slots[t.ops[i].si].failedOver = true
	}
}

func (cl *client) unlockThen(p *sim.Proc, ti uint32, after uint8) {
	t := &cl.txns[ti]
	t.after, t.phase = after, phUnlock
	cl.dispatch(p, ti)
}

// finish ends the transaction once the unlock round (possibly vacuous)
// drained: each member still aboard completes, fails typed, or backs off to
// be resubmitted — a PUT through its shard's queue again.
func (cl *client) finish(p *sim.Proc, ti uint32) {
	t := &cl.txns[ti]
	for i := 0; i < int(t.n); i++ {
		if t.ops[i].ki != 0 || t.gone&(1<<i) != 0 {
			continue
		}
		switch si := t.ops[i].si; {
		case t.after == auFail:
			cl.terminal(p, si, uint32(t.status))
		case t.after == auComplete && t.commit&(1<<i) != 0:
			cl.terminal(p, si, StatusOK)
		default:
			cl.scheduleRetry(p, si)
		}
	}
	cl.retire(p, ti)
}

// onPeerDeath is the endpoint's *am.PeerDeathError observer. It runs inside
// Poll, so it only marks state: the dead server is excluded from routing,
// and every sub-request outstanding toward it resolves as failed (the main
// loop then re-routes those operations to the surviving replicas).
func (cl *client) onPeerDeath(p *sim.Proc, ep *am.Endpoint, peer int, err *am.PeerDeathError) {
	if peer >= cl.svc.cfg.Servers {
		return
	}
	if !cl.dead[peer] {
		cl.dead[peer] = true
		if t := p.Now(); t > cl.detectAt {
			cl.detectAt = t
		}
	}
	for ti := range cl.txns {
		t := &cl.txns[ti]
		if !t.active || t.await == 0 {
			continue
		}
		for sub := range t.tgt {
			if t.tgt[sub] == int8(peer) {
				cl.resolve(t, sub)
				t.failed = true
			}
		}
		if t.await == 0 {
			cl.markReady(uint32(ti))
		}
	}
}
