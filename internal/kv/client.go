package kv

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/kv/load"
	"spam/internal/ring"
	"spam/internal/sim"
)

// reqSlot is one client operation from arrival to terminal outcome. Slots
// live in a fixed array. What a slot has on the network belongs to the
// transaction carrying it (txn.go); the slot keeps the operation itself and
// what must survive from one transaction to the next.
type reqSlot struct {
	failedOver bool // the op survived at least one replica death
	op         load.Op
	nkeys      uint8
	status     uint8
	attempts   uint16 // lock rounds ridden
	gen        uint32 // bumped per operation; with the slot index it names the op
	keys       [maxKeys]uint32
	val        uint32
	arrive     sim.Time

	// Read-cache state (GET slots only). A coalescing leader chains its
	// waiters through waitHead/waitNext (slot indices, -1 = none); verFloor
	// is raised by invalidations and local write completions that land
	// while the fetch is in flight, so a reply carrying an older version is
	// served but not cached.
	sentAt   sim.Time
	ver      uint32
	verFloor uint32
	waitHead int32
	waitNext int32
	vers     [maxKeys]uint32 // max version acked per key by one-op commit replies
}

type retryEnt struct {
	si  uint32
	seq uint32 // FIFO tiebreak for equal wake times
	at  sim.Time
}

// retryHeap orders pending retries by (wake time, schedule order). The
// exponential backoff hands out per-attempt delays, so insertion order no
// longer matches time order and a FIFO ring would dispatch out of order.
// The slice is retained across operations — steady state allocates nothing.
type retryHeap struct{ h []retryEnt }

func (q *retryHeap) Len() int { return len(q.h) }

func (q *retryHeap) less(a, b retryEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *retryHeap) Push(e retryEnt) {
	q.h = append(q.h, e)
	for i := len(q.h) - 1; i > 0; {
		par := (i - 1) / 2
		if !q.less(q.h[i], q.h[par]) {
			break
		}
		q.h[i], q.h[par] = q.h[par], q.h[i]
		i = par
	}
}

func (q *retryHeap) Min() retryEnt { return q.h[0] }

func (q *retryHeap) Pop() retryEnt {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && q.less(q.h[r], q.h[l]) {
			c = r
		}
		if !q.less(q.h[c], q.h[i]) {
			break
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		i = c
	}
	return top
}

// client drives one client node: open-loop arrivals from its forked load
// generator, a slot pool of operations, the transactions that carry them,
// and a per-server outstanding cap (below the AM request window) so a send
// toward a dead-but-undeclared server can never block the whole node.
type client struct {
	svc *Service
	idx int
	ep  *am.Endpoint
	gen *load.Gen

	slots  []reqSlot
	free   ring.Ring[uint32]
	retryq retryHeap // lock retries, ordered by backoff wake time

	txns   []txn
	txfree ring.Ring[uint32]
	ready  ring.Ring[uint32] // transactions whose round drained; advance in the main loop
	defq   ring.Ring[uint32] // transactions whose round deferred on the in-flight cap
	shardq []shardQ          // per shard: PUTs waiting to coalesce
	armq   ring.Ring[uint32] // shards with an armed flush deadline (FIFO = time order)

	inflight []int32             // per server
	need     []int32             // reserve scratch
	vec      [maxBatchOps]wireOp // dispatch scratch
	dead     []bool              // per server, set by the peer-death handler

	retryRng *sim.Rand // backoff jitter; distinct stream from the load gen
	retrySeq uint32

	cache       *readCache        // nil when Config.CacheOff
	getInflight map[uint32]uint32 // key -> leader slot of the in-flight GET

	budget   int64
	finished int64
	nextAt   sim.Time

	st               Counters
	detectAt         sim.Time // latest peer-death declaration observed
	lastFailoverDone sim.Time // latest completion of a failed-over op
	finishAt         sim.Time
}

func newClient(svc *Service, idx int, ep *am.Endpoint, budget int, vlo, vn uint32) *client {
	cfg := svc.cfg
	seed := cfg.Seed + uint64(idx)*0x9E3779B97F4A7C15 + 1
	cl := &client{
		svc:      svc,
		idx:      idx,
		ep:       ep,
		gen:      load.NewGen(seed, cfg.Rate/float64(cfg.ClientNodes), cfg.Keys, cfg.Zipf, cfg.Mix, vlo, vn),
		slots:    make([]reqSlot, slots),
		txns:     make([]txn, slots),
		shardq:   make([]shardQ, svc.numShards),
		inflight: make([]int32, cfg.Servers),
		need:     make([]int32, cfg.Servers),
		dead:     make([]bool, cfg.Servers),
		retryRng: sim.NewRand(seed + 0x5CA1AB1E),
		budget:   int64(budget),
	}
	if !cfg.CacheOff {
		cl.cache = newReadCache(cfg.CacheSize, cfg.Lease)
		cl.getInflight = make(map[uint32]uint32, slots)
	}
	// Every slot can be the only member of a transaction, so one transaction
	// per slot is enough. A transaction's staging source is rewritten only
	// after the round it carried was answered, which implies the server
	// consumed the store — so reuse never races a live transfer, and a
	// retransmission of an answered round is dropped as a duplicate.
	slab := make([]byte, slots*stageBytes)
	for i := range cl.txns {
		t := &cl.txns[i]
		t.buf, slab = slab[:stageBytes], slab[stageBytes:]
		for j := range t.tgt {
			t.tgt[j] = -1
		}
		cl.txfree.Push(uint32(i))
		cl.free.Push(uint32(i))
	}
	return cl
}

// run is the client node's program: issue arrivals on schedule, advance
// the rounds flagged by the reply handler, retry aborted locks, and poll the
// network. The loop always advances simulated time (every iteration ends in
// at least one poll), so it cannot spin. Queue state moves only inside a
// poll (handlers) or when the clock reaches a retry, arrival or flush
// deadline, which is am.PollWait's contract: an iteration that leaves
// nothing to re-drive waits there for the earliest of the three.
func (cl *client) run(p *sim.Proc, n *hw.Node) {
	cl.nextAt = p.Now() + cl.gen.NextGap()
	for cl.finished < cl.budget {
		now := p.Now()
		for cl.ready.Len() > 0 {
			cl.advance(p, cl.ready.Pop())
		}
		for cl.retryq.Len() > 0 && cl.retryq.Min().at <= now {
			cl.submit(p, cl.retryq.Pop().si)
		}
		for k := cl.defq.Len(); k > 0; k-- {
			cl.dispatch(p, cl.defq.Pop())
		}
		for cl.st.Issued < cl.budget && cl.nextAt <= now && cl.free.Len() > 0 {
			cl.startOp(p)
		}
		// Flush the shards whose window expired. Deadlines enter armq in
		// arming order and windows are constant, so the front is earliest.
		for cl.armq.Len() > 0 {
			sh := *cl.armq.Peek()
			q := &cl.shardq[sh]
			if q.deadline > now {
				break
			}
			cl.armq.Drop()
			q.armed = false
			cl.flush(p, sh)
		}
		if cl.finished >= cl.budget {
			break
		}
		if cl.ready.Len()+cl.defq.Len() > 0 {
			// Handlers that ran inside this iteration's sends flagged more
			// work, and a deferred round is retried (and counted) every
			// iteration: come straight back after one poll.
			cl.ep.Poll(p)
		} else {
			cl.ep.PollWait(p, cl.nextDeadline())
		}
	}
	cl.finishAt = p.Now()
	// Announce completion so the servers can quiesce; a server already
	// declared dead is skipped, one killed-but-undeclared resolves during
	// the drain via the keep-alive ladder.
	for srv := 0; srv < cl.svc.cfg.Servers; srv++ {
		if cl.dead[srv] {
			continue
		}
		cl.ep.Request(p, srv, cl.svc.hDone, uint32(cl.idx))
	}
	cl.ep.Drain(p, 0)
}

// nextDeadline is the earliest time at which run has something to do that
// no poll announces: the first lock retry, the next arrival (while the
// budget and a free slot allow one) or the front flush deadline. 0 = none.
func (cl *client) nextDeadline() sim.Time {
	var t sim.Time
	if cl.retryq.Len() > 0 {
		t = cl.retryq.Min().at
	}
	if cl.st.Issued < cl.budget && cl.free.Len() > 0 && (t == 0 || cl.nextAt < t) {
		t = cl.nextAt
	}
	if cl.armq.Len() > 0 {
		if d := cl.shardq[*cl.armq.Peek()].deadline; t == 0 || d < t {
			t = d
		}
	}
	return t
}

// startOp consumes the next scheduled arrival. The draw order (gap, op,
// key, value, virtual client) is fixed per request, and nextAt accumulates
// gaps regardless of service progress — the schedule never depends on
// completions, which is what makes the load open-loop.
func (cl *client) startOp(p *sim.Proc) {
	si := cl.free.Pop()
	s := &cl.slots[si]
	arrive := cl.nextAt
	cl.nextAt += cl.gen.NextGap()
	op := cl.gen.NextOp()
	key := cl.gen.NextKey()
	val := cl.gen.NextValue()
	cl.gen.NextClient() // the end-client id: nothing reads it, but the draw is part of the stream
	gen := (s.gen + 1) & 0xFFFF

	*s = reqSlot{op: op, arrive: arrive, gen: gen, val: val, nkeys: 1}
	s.keys[0] = key
	s.waitHead, s.waitNext = -1, -1
	cl.st.Issued++
	switch op {
	case load.OpGet:
		cl.st.Gets++
		if cl.cache != nil && cl.serveOrCoalesce(p, si) {
			return
		}
	case load.OpPut:
		cl.st.Puts++
	case load.OpDelete:
		cl.st.Deletes++
	default: // Batch: an atomic put of the key's even/odd pair
		cl.st.Batches++
		s.nkeys = 2
		s.keys[0] = key &^ 1
		s.keys[1] = key | 1
	}
	cl.submit(p, si)
}

// submit puts the operation on the network, at arrival and again after
// every backoff: a PUT joins its shard's coalescing queue, anything else is
// the only member of a transaction of its own. Main loop only.
func (cl *client) submit(p *sim.Proc, si uint32) {
	s := &cl.slots[si]
	if s.op == load.OpPut {
		cl.enqueue(p, si)
		return
	}
	phase := phLock
	if s.op == load.OpGet {
		phase = phRead
	}
	ti := cl.begin(phase)
	cl.addMember(ti, si)
	cl.dispatch(p, ti)
}

// serveOrCoalesce tries to retire a fresh GET without touching the
// network: a lease-valid cache hit terminates immediately (the round trip
// the cache exists to eliminate), and a miss on a key whose fetch is
// already in flight from this node chains onto that leader's waiter list
// instead of issuing a duplicate (singleflight). Reports whether the slot
// was absorbed; otherwise the caller dispatches it as the key's leader.
func (cl *client) serveOrCoalesce(p *sim.Proc, si uint32) bool {
	s := &cl.slots[si]
	key := s.keys[0]
	e, lk := cl.cache.lookup(key, p.Now())
	switch lk {
	case lkHit:
		cl.st.CacheHits++
		if p.Now() >= e.exp {
			cl.st.StaleServed++ // lookup forbids this; the counter is the proof
		}
		if f := cl.svc.staleCheck; f != nil {
			f(key, e.ver, p.Now())
		}
		s.val, s.ver = e.val, e.ver
		cl.terminal(p, si, uint32(e.status))
		return true
	}
	// Not serveable. If a fetch for this key is already in flight, ride it
	// instead of issuing another; only the leader counts as a miss or a
	// stale revalidation, so the four classes partition the GETs.
	if li, ok := cl.getInflight[key]; ok {
		cl.st.Coalesced++
		s.waitNext = cl.slots[li].waitHead
		cl.slots[li].waitHead = int32(si)
		return true
	}
	if lk == lkStale {
		cl.st.CacheStale++
	} else {
		cl.st.CacheMisses++
	}
	cl.getInflight[key] = si
	return false
}

// scheduleRetry parks the slot for another lock round after a backoff, or
// gives up with a typed Conflict once the attempt budget is spent. The
// delay doubles per attempt up to retryBackoffCap doublings, with jitter drawn
// from the client's own seeded stream (uniform over the delay's upper
// half) — contending clients decorrelate instead of re-colliding, and the
// draw order is deterministic because retries are scheduled by the main
// loop in event order.
func (cl *client) scheduleRetry(p *sim.Proc, si uint32) {
	s := &cl.slots[si]
	if int(s.attempts) >= cl.svc.cfg.MaxAttempts {
		cl.terminal(p, si, StatusConflict)
		return
	}
	cl.st.Backoffs++
	cl.retrySeq++
	cl.retryq.Push(retryEnt{si: si, seq: cl.retrySeq, at: p.Now() + cl.backoffDelay(s.attempts)})
}

// backoffDelay computes the retry delay for a slot on its given attempt
// count.
func (cl *client) backoffDelay(attempts uint16) sim.Time {
	shift := int(attempts) - 1
	if shift < 0 {
		shift = 0
	}
	if shift > retryBackoffCap {
		shift = retryBackoffCap
	}
	d := retryBackoff << shift
	half := d >> 1
	return half + sim.Time(cl.retryRng.Uint64()%uint64(half+1))
}

// finishRead retires a leader GET: install the result in the cache (unless
// an invalidation or newer fill outran the reply — then serve it but do
// not cache it), complete every coalesced waiter with the same outcome,
// then retire the leader itself.
func (cl *client) finishRead(p *sim.Proc, si uint32, status uint32) {
	s := &cl.slots[si]
	if cl.cache != nil {
		if li, ok := cl.getInflight[s.keys[0]]; ok && li == si {
			delete(cl.getInflight, s.keys[0])
		}
		if status == StatusOK || status == StatusNotFound {
			if s.ver >= s.verFloor {
				if _, ev := cl.cache.fill(s.keys[0], s.val, s.ver, uint8(status), s.sentAt); ev {
					cl.st.Evictions++
				}
			} else {
				cl.st.StaleFills++
			}
		}
		for w := s.waitHead; w >= 0; {
			ws := &cl.slots[w]
			next := ws.waitNext
			ws.val, ws.ver = s.val, s.ver
			cl.terminal(p, uint32(w), status)
			w = next
		}
		s.waitHead = -1
	}
	cl.terminal(p, si, status)
}

// terminal retires the slot with its outcome. Latency is open-loop: from
// the scheduled arrival (not the issue time), so queueing delay, retries,
// and failover stalls all count — no coordinated omission.
func (cl *client) terminal(p *sim.Proc, si uint32, status uint32) {
	s := &cl.slots[si]
	now := p.Now()
	if cl.cache != nil && status == StatusOK && s.op != load.OpGet {
		// Write completion: raise the written keys' version floors so the
		// cache can no longer serve (or accept fills of) anything older —
		// this client reads its own writes back within one round trip.
		// A staged vector's commit reply carries no per-key versions (vers
		// stays 0): drop the entry instead, and rely on the commit's push —
		// which includes the writer for exactly this reason — for the floor.
		for i := 0; i < int(s.nkeys); i++ {
			if s.vers[i] == 0 {
				cl.cache.drop(s.keys[i])
				continue
			}
			cl.cache.invalidate(s.keys[i], s.vers[i])
			if li, ok := cl.getInflight[s.keys[i]]; ok {
				if ls := &cl.slots[li]; s.vers[i] > ls.verFloor {
					ls.verFloor = s.vers[i]
				}
			}
		}
	}
	switch status {
	case StatusOK, StatusNotFound:
		cl.st.Completed++
		if status == StatusNotFound {
			cl.st.NotFound++
		}
		lat := int64(now - s.arrive)
		cl.st.Lat.Observe(lat)
		if s.op == load.OpGet {
			cl.st.LatGet.Observe(lat)
		} else {
			cl.st.LatWrite.Observe(lat)
		}
	case StatusConflict:
		cl.st.Conflicts++
	case StatusUnavailable:
		cl.st.Unavail++
	}
	if s.failedOver {
		cl.st.Failovers++
		if now > cl.lastFailoverDone {
			cl.lastFailoverDone = now
		}
	}
	cl.finished++
	cl.free.Push(si)
}

// onInval is the server's invalidation push: args [key, ver]. It runs
// inside Poll (possibly the post-run drain daemon's), so it only updates
// cache state — never sends. The pushed version also floors any in-flight
// fetch of the key, so a reply already in the air cannot re-cache the
// overwritten value.
func (cl *client) onInval(args []uint32) {
	key, ver := args[0], args[1]
	cl.st.InvalsRecv++
	if cl.cache == nil {
		return
	}
	cl.cache.invalidate(key, ver)
	if li, ok := cl.getInflight[key]; ok {
		if ls := &cl.slots[li]; ver > ls.verFloor {
			ls.verFloor = ver
		}
	}
}
