package kv

import (
	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/kv/load"
	"spam/internal/ring"
	"spam/internal/sim"
	"spam/internal/trace"
)

// Request phases. Reads are one phase; writes run the percolator-lite
// three-step (lock at the primary, commit to every live replica, unlock).
const (
	phRead uint8 = iota
	phLock
	phCommit
	phUnlock
	phBatch // parked in the write batcher (batch.go); the batch drives it
)

// What to do once the unlock phase drains.
const (
	auComplete uint8 = iota // commit done: terminal success
	auRetry                 // aborted (denial or failover): retry the lock phase
	auFail                  // terminal with slot.status (e.g. Unavailable)
)

// reqSlot is one in-flight operation. Slots live in a fixed array; the
// request id wire word encodes (generation, slot, sub-request), so replies
// route back without any allocation or map lookup.
type reqSlot struct {
	active     bool
	pendingAdv bool // queued on the ready ring (dedup)
	failed     bool // a peer death resolved part of this phase
	denied     bool // a lock in this round was denied
	commitDone bool
	failedOver bool // the op survived at least one replica death
	coalesced  bool // GET riding another slot's in-flight fetch
	op         load.Op
	phase      uint8
	afterUnlock uint8
	nkeys      uint8
	attempts   uint16
	await      int8
	gen        uint32
	txn        uint32
	status     uint8
	keys       [maxKeys]uint32
	val        uint32
	granted    [maxKeys]bool
	grantSrv   [maxKeys]int8
	tgt        [maxTargets]int8 // sub -> server awaiting reply, -1 = resolved
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
	vers     [maxKeys]uint32 // commit phase: max version acked per key
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

// ClientStats is one client node's deterministic accounting.
type ClientStats struct {
	Completed, NotFound          int64
	ConflictGiveups, Unavailable int64
	Gets, Puts, Deletes, Batches int64
	LockRetries, Failovers       int64
	Deferrals                    int64

	// Write-batching accounting (see batch.go and Result for semantics).
	WriteBatches, BatchedPuts, CombinedPuts, Backoffs int64
	BatchSize                                         trace.Histogram

	// Read-cache accounting. Every GET is exactly one of hit, coalesced,
	// or fetched (miss + stale); StaleServed guards the lease bound and
	// must stay 0.
	CacheHits, CacheMisses, CacheStale int64
	Coalesced                          int64
	InvalsRecv                         int64
	Evictions                          int64
	StaleFills                         int64 // fetches not cached: an invalidation outran the reply
	StaleServed                        int64 // cache served past lease expiry (structurally impossible)

	Lat, LatGet, LatWrite trace.Histogram

	DetectAt         sim.Time // latest peer-death declaration observed
	LastFailoverDone sim.Time // latest completion of a failed-over op
	FinishAt         sim.Time
}

// client drives one client node: open-loop arrivals from its forked load
// generator, a slot pool of in-flight operations, and a per-server
// outstanding cap (below the AM request window) so a send toward a
// dead-but-undeclared server can never block the whole node.
type client struct {
	svc *Service
	idx int
	ep  *am.Endpoint
	gen *load.Gen

	slots  []reqSlot
	free   ring.Ring[uint32]
	ready  ring.Ring[uint32] // phases drained; advance in the main loop
	defq   ring.Ring[uint32] // dispatches deferred on the in-flight cap
	retryq retryHeap         // lock retries, ordered by backoff wake time

	inflight []int32 // per server
	need     []int32 // dispatch scratch
	dead     []bool  // per server, set by the peer-death handler

	// Write batcher (batch.go): per-shard batch state plus the rings that
	// mirror ready/defq for batches and the flush-deadline queue.
	batchOn  bool
	batches  []wbatch
	bready   ring.Ring[uint32] // batch rounds drained; advance in the main loop
	bdefq    ring.Ring[uint32] // batch rounds deferred on the in-flight cap
	armq     ring.Ring[uint32] // shards with an armed flush deadline (FIFO = time order)
	retryRng *sim.Rand         // backoff jitter; distinct stream from the load gen
	retrySeq uint32

	cache       *readCache        // nil when Config.CacheOff
	getInflight map[uint32]uint32 // key -> leader slot of the in-flight GET

	budget, issued, finished int
	nextAt                   sim.Time

	st ClientStats
}

func newClient(svc *Service, idx int, ep *am.Endpoint, budget int, vlo, vn uint32) *client {
	cfg := svc.cfg
	seed := cfg.Seed + uint64(idx)*0x9E3779B97F4A7C15 + 1
	cl := &client{
		svc:      svc,
		idx:      idx,
		ep:       ep,
		gen:      load.NewGen(seed, cfg.Rate/float64(cfg.ClientNodes), cfg.Keys, cfg.Zipf, cfg.Mix, vlo, vn),
		slots:    make([]reqSlot, cfg.Slots),
		inflight: make([]int32, cfg.Servers),
		need:     make([]int32, cfg.Servers),
		dead:     make([]bool, cfg.Servers),
		budget:   budget,
	}
	if !cfg.CacheOff {
		cl.cache = newReadCache(cfg.CacheSize, cfg.Lease)
		cl.getInflight = make(map[uint32]uint32, cfg.Slots)
	}
	cl.batchOn = !cfg.BatchOff
	cl.retryRng = sim.NewRand(seed + 0x5CA1AB1E)
	if cl.batchOn {
		// One slab, three phase buffers per shard. A phase buffer is only
		// rewritten after its round's reply arrived, which implies the
		// server consumed the store — so buffer reuse never races a live
		// transfer.
		ns := svc.numShards
		slab := make([]byte, ns*(4*maxBatchOps+stageBytes+4*maxBatchOps))
		cl.batches = make([]wbatch, ns)
		for sh := 0; sh < ns; sh++ {
			b := &cl.batches[sh]
			b.lockBuf, slab = slab[:4*maxBatchOps], slab[4*maxBatchOps:]
			b.commitBuf, slab = slab[:stageBytes], slab[stageBytes:]
			b.unlockBuf, slab = slab[:4*maxBatchOps], slab[4*maxBatchOps:]
			b.lockSrv = -1
			for i := range b.tgt {
				b.tgt[i] = -1
			}
		}
	}
	for i := 0; i < cfg.Slots; i++ {
		cl.free.Push(uint32(i))
	}
	return cl
}

// run is the client node's program: issue arrivals on schedule, advance
// phase transitions flagged by the reply handler, retry aborted locks, and
// poll the network. The loop always advances simulated time (every
// iteration ends in at least one poll), so it cannot spin. Queue state
// moves only inside a poll (handlers) or when the clock reaches a retry,
// arrival or flush deadline, which is am.PollWait's contract: an iteration
// that leaves nothing to re-drive waits there for the earliest of the three.
func (cl *client) run(p *sim.Proc, n *hw.Node) {
	cl.nextAt = p.Now() + cl.gen.NextGap()
	for cl.finished < cl.budget {
		now := p.Now()
		for cl.ready.Len() > 0 {
			cl.advance(p, cl.ready.Pop())
		}
		for cl.bready.Len() > 0 {
			cl.advanceBatch(p, cl.bready.Pop())
		}
		for cl.retryq.Len() > 0 && cl.retryq.Min().at <= now {
			cl.dispatch(p, cl.retryq.Pop().si)
		}
		for k := cl.defq.Len(); k > 0; k-- {
			cl.dispatch(p, cl.defq.Pop())
		}
		for k := cl.bdefq.Len(); k > 0; k-- {
			cl.pumpBatch(p, cl.bdefq.Pop())
		}
		for cl.issued < cl.budget && cl.nextAt <= now && cl.free.Len() > 0 {
			cl.startOp(p)
		}
		// Flush batches whose window expired. Deadlines enter armq in
		// arming order and windows are constant, so the front is earliest.
		for cl.armq.Len() > 0 {
			sh := *cl.armq.Peek()
			b := &cl.batches[sh]
			if b.deadline > now {
				break
			}
			cl.armq.Pop()
			b.armed = false
			if !b.active {
				cl.flushBatch(p, sh)
			}
		}
		if cl.finished >= cl.budget {
			break
		}
		if cl.ready.Len()+cl.bready.Len()+cl.defq.Len()+cl.bdefq.Len() > 0 {
			// Handlers that ran inside this iteration's sends flagged more
			// work, and a deferred dispatch is retried (and counted) every
			// iteration: come straight back after one poll.
			cl.ep.Poll(p)
		} else {
			cl.ep.PollWait(p, cl.nextDeadline())
		}
	}
	cl.st.FinishAt = p.Now()
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
	if cl.issued < cl.budget && cl.free.Len() > 0 && (t == 0 || cl.nextAt < t) {
		t = cl.nextAt
	}
	if cl.armq.Len() > 0 {
		if d := cl.batches[*cl.armq.Peek()].deadline; t == 0 || d < t {
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
	cl.gen.NextClient() // attribute the request to a virtual end-client
	gen := (s.gen + 1) & 0xFFFF

	*s = reqSlot{active: true, op: op, arrive: arrive, gen: gen, val: val, nkeys: 1}
	s.txn = 1<<31 | uint32(cl.idx)<<12 | si
	s.keys[0] = key
	s.waitHead, s.waitNext = -1, -1
	for i := range s.tgt {
		s.tgt[i] = -1
	}
	cl.issued++
	switch op {
	case load.OpGet:
		cl.st.Gets++
		s.phase = phRead
		if cl.cache != nil && cl.serveOrCoalesce(p, si) {
			return
		}
	case load.OpPut:
		cl.st.Puts++
		s.phase = phLock
	case load.OpDelete:
		cl.st.Deletes++
		s.phase = phLock
	default: // Batch: an atomic put of the key's even/odd pair
		cl.st.Batches++
		s.phase = phLock
		s.nkeys = 2
		s.keys[0] = key &^ 1
		s.keys[1] = key | 1
	}
	cl.dispatch(p, si)
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
		s.coalesced = true
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

// primary returns the first live replica of shard sh, or -1.
func (cl *client) primary(sh int) int {
	for i := 0; i < cl.svc.cfg.Replicas; i++ {
		if srv := cl.svc.replicaSrv(sh, i); !cl.dead[srv] {
			return srv
		}
	}
	return -1
}

// reserve checks the per-server in-flight cap for every target of the
// phase about to be sent (all-or-nothing); on failure the slot parks on the
// deferral queue and is retried next loop iteration.
func (cl *client) reserve(si uint32, targets []int8, n int) bool {
	cap32 := int32(cl.svc.cfg.InflightCap)
	for i := 0; i < n; i++ {
		cl.need[targets[i]]++
	}
	ok := true
	for i := 0; i < n; i++ {
		t := targets[i]
		if cl.inflight[t]+cl.need[t] > cap32 {
			ok = false
		}
		cl.need[t] = 0
	}
	if !ok {
		cl.st.Deferrals++
		cl.defq.Push(si)
	}
	return ok
}

// arm registers sub-request sub of slot si as outstanding toward srv and
// returns the wire request id.
func (cl *client) arm(si uint32, sub, srv int) uint32 {
	s := &cl.slots[si]
	s.tgt[sub] = int8(srv)
	s.await++
	cl.inflight[srv]++
	return s.gen<<16 | si<<4 | uint32(sub)
}

// post handles a Request error (the peer was declared dead in the send
// path): the sub-request resolves as failed unless the death handler beat
// us to it.
func (cl *client) post(si uint32, sub, srv int, err error) {
	if err == nil {
		return
	}
	s := &cl.slots[si]
	if s.tgt[sub] == int8(srv) {
		s.tgt[sub] = -1
		s.await--
		cl.inflight[srv]--
		s.failed = true
	}
}

// pumpBatch retries a batch round that deferred on the in-flight cap (or,
// if the batch since retired, flushes whatever is pending for the shard).
func (cl *client) pumpBatch(p *sim.Proc, sh uint32) {
	if cl.batches[sh].active {
		cl.dispatchBatch(p, sh)
	} else {
		cl.pumpPend(p, sh)
	}
}

// dispatch routes the slot: batchable PUTs at their lock phase park in the
// write batcher; everything else takes the classic per-op rounds. It is
// called from the main loop only (never from handlers), so it may issue
// blocking Requests.
func (cl *client) dispatch(p *sim.Proc, si uint32) {
	s := &cl.slots[si]
	if s.phase == phLock && cl.batchable(s) {
		cl.enqueueBatch(p, si)
		return
	}
	cl.dispatchSolo(p, si)
}

// dispatchSolo sends the slot's current phase through the classic per-op
// rounds.
func (cl *client) dispatchSolo(p *sim.Proc, si uint32) {
	s := &cl.slots[si]
	var targets [maxTargets]int8
	switch s.phase {
	case phRead:
		sh := cl.svc.shardOf(s.keys[0])
		t := cl.primary(sh)
		if t < 0 {
			cl.finishRead(p, si, StatusUnavailable)
			return
		}
		targets[0] = int8(t)
		if !cl.reserve(si, targets[:], 1) {
			return
		}
		s.sentAt = p.Now() // lease basis: at or before any server-side read
		reqID := cl.arm(si, 0, t)
		cl.post(si, 0, t, cl.ep.Request(p, t, cl.svc.hGet, reqID, s.keys[0]))

	case phLock:
		nk := int(s.nkeys)
		for i := 0; i < nk; i++ {
			t := cl.primary(cl.svc.shardOf(s.keys[i]))
			if t < 0 {
				cl.terminal(p, si, StatusUnavailable)
				return
			}
			targets[i] = int8(t)
		}
		if !cl.reserve(si, targets[:], nk) {
			return
		}
		s.denied, s.failed, s.commitDone = false, false, false
		s.granted = [maxKeys]bool{}
		s.attempts++
		for i := 0; i < nk; i++ {
			t := int(targets[i])
			s.grantSrv[i] = int8(t)
			reqID := cl.arm(si, i, t)
			cl.post(si, i, t, cl.ep.Request(p, t, cl.svc.hLock, reqID, s.txn, s.keys[i]))
		}

	case phCommit:
		R := cl.svc.cfg.Replicas
		n := 0
		var subs [maxTargets]int
		for i := 0; i < int(s.nkeys); i++ {
			sh := cl.svc.shardOf(s.keys[i])
			live := 0
			for r := 0; r < R; r++ {
				srv := cl.svc.replicaSrv(sh, r)
				if cl.dead[srv] {
					continue
				}
				subs[n] = i*maxReplicas + r
				targets[n] = int8(srv)
				n++
				live++
			}
			if live == 0 {
				// The shard vanished between lock and commit: unlock
				// whatever is still held, then fail typed.
				s.status = uint8(StatusUnavailable)
				s.afterUnlock = auFail
				s.phase = phUnlock
				cl.dispatch(p, si)
				return
			}
		}
		if !cl.reserve(si, targets[:], n) {
			return
		}
		s.failed = false
		h := cl.svc.hCommitPut
		if s.op == load.OpDelete {
			h = cl.svc.hCommitDel
		}
		for j := 0; j < n; j++ {
			t := int(targets[j])
			i := subs[j] / maxReplicas
			reqID := cl.arm(si, subs[j], t)
			var err error
			if s.op == load.OpDelete {
				err = cl.ep.Request(p, t, h, reqID, s.txn, s.keys[i])
			} else {
				err = cl.ep.Request(p, t, h, reqID, s.txn, s.keys[i], s.val)
			}
			cl.post(si, subs[j], t, err)
		}

	case phUnlock:
		n := 0
		var subs [maxTargets]int
		for i := 0; i < int(s.nkeys); i++ {
			if s.granted[i] && !cl.dead[s.grantSrv[i]] {
				subs[n] = i
				targets[n] = s.grantSrv[i]
				n++
			}
		}
		if n == 0 {
			cl.finishUnlock(p, si)
			return
		}
		if !cl.reserve(si, targets[:], n) {
			return
		}
		s.failed = false
		for j := 0; j < n; j++ {
			t := int(targets[j])
			i := subs[j]
			reqID := cl.arm(si, i, t)
			cl.post(si, i, t, cl.ep.Request(p, t, cl.svc.hUnlock, reqID, s.txn, s.keys[i]))
		}
	}
	if s := &cl.slots[si]; s.active && s.await == 0 {
		cl.markReady(si)
	}
}

// markReady queues the slot for a phase transition in the main loop
// (handlers must not send, so they flag and return).
func (cl *client) markReady(si uint32) {
	s := &cl.slots[si]
	if !s.pendingAdv {
		s.pendingAdv = true
		cl.ready.Push(si)
	}
}

// onResp is the shared reply handler: route by the request id, account the
// resolved sub-request, and flag the slot when the phase has drained.
func (cl *client) onResp(args []uint32) {
	reqID, status, val := args[0], args[1], args[2]
	sub := int(reqID & 0xF)
	si := (reqID >> 4) & 0xFFF
	gen := reqID >> 16
	s := &cl.slots[si]
	if !s.active || s.gen != gen || s.tgt[sub] < 0 {
		return // stale: the slot moved on (peer-death resolution beat the reply)
	}
	srv := int(s.tgt[sub])
	s.tgt[sub] = -1
	s.await--
	cl.inflight[srv]--
	switch s.phase {
	case phRead:
		s.status = uint8(status)
		s.val = val
		if len(args) > 3 {
			s.ver = args[3]
		}
	case phLock:
		if status == StatusOK {
			s.granted[sub] = true
		} else {
			s.denied = true
		}
	case phCommit:
		// The commit reply's third word is the key's new version; keep the
		// max per key so the write completion can raise the cache floor.
		if i := sub / maxReplicas; i < int(s.nkeys) && val > s.vers[i] {
			s.vers[i] = val
		}
	}
	if s.await == 0 {
		cl.markReady(si)
	}
}

// advance runs one phase transition for a drained slot.
func (cl *client) advance(p *sim.Proc, si uint32) {
	s := &cl.slots[si]
	if !s.active || !s.pendingAdv {
		return
	}
	s.pendingAdv = false
	if s.await > 0 {
		return // flagged mid-dispatch; the last resolver re-flags
	}
	switch s.phase {
	case phRead:
		if s.failed {
			s.failed = false
			s.failedOver = true
			cl.dispatch(p, si) // re-route to the next live replica
			return
		}
		cl.finishRead(p, si, uint32(s.status))
	case phLock:
		if s.failed || s.denied {
			if s.failed {
				s.failedOver = true
			}
			if s.denied {
				cl.st.LockRetries++
			}
			s.afterUnlock = auRetry
			s.phase = phUnlock
			cl.dispatch(p, si)
			return
		}
		s.phase = phCommit
		cl.dispatch(p, si)
	case phCommit:
		if s.failed {
			// A replica died mid-commit: abort and redo the whole write
			// against the survivors (commits are idempotent).
			s.failedOver = true
			s.afterUnlock = auRetry
			s.phase = phUnlock
			cl.dispatch(p, si)
			return
		}
		s.commitDone = true
		s.afterUnlock = auComplete
		s.phase = phUnlock
		cl.dispatch(p, si)
	case phUnlock:
		cl.finishUnlock(p, si)
	}
}

// finishUnlock completes the unlock phase (possibly vacuous) and performs
// the queued continuation: terminal success, typed failure, or a backoff
// retry of the lock phase.
func (cl *client) finishUnlock(p *sim.Proc, si uint32) {
	s := &cl.slots[si]
	s.granted = [maxKeys]bool{}
	switch s.afterUnlock {
	case auComplete:
		cl.terminal(p, si, StatusOK)
	case auFail:
		cl.terminal(p, si, uint32(s.status))
	default: // auRetry
		cl.scheduleRetry(p, si)
	}
}

// scheduleRetry parks the slot for another lock round after a backoff, or
// gives up with a typed Conflict once the attempt budget is spent. The
// delay doubles per attempt up to BackoffCap doublings, with jitter drawn
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
	s.phase = phLock
	cl.st.Backoffs++
	cl.retrySeq++
	cl.retryq.Push(retryEnt{si: si, seq: cl.retrySeq, at: p.Now() + cl.backoffDelay(s.attempts)})
}

// backoffDelay computes the retry delay for a slot on its given attempt
// count. LegacyRetry reproduces the pre-batching fixed delay (the A/B
// baseline for the write tables).
func (cl *client) backoffDelay(attempts uint16) sim.Time {
	base := cl.svc.cfg.RetryBackoff
	if cl.svc.cfg.LegacyRetry {
		return base
	}
	shift := int(attempts) - 1
	if shift < 0 {
		shift = 0
	}
	if shift > cl.svc.cfg.BackoffCap {
		shift = cl.svc.cfg.BackoffCap
	}
	d := base << shift
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
		// A batched commit's reply carries no per-key versions (vers stays
		// 0): drop the entry instead, and rely on the commit's push — which
		// includes the writer for exactly this reason — for the floor.
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
		cl.st.ConflictGiveups++
	case StatusUnavailable:
		cl.st.Unavailable++
	}
	if s.failedOver {
		cl.st.Failovers++
		if now > cl.st.LastFailoverDone {
			cl.st.LastFailoverDone = now
		}
	}
	s.active = false
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
		if t := p.Now(); t > cl.st.DetectAt {
			cl.st.DetectAt = t
		}
	}
	for i := range cl.slots {
		s := &cl.slots[i]
		if !s.active || s.await == 0 {
			continue
		}
		for sub := range s.tgt {
			if s.tgt[sub] == int8(peer) {
				s.tgt[sub] = -1
				s.await--
				cl.inflight[peer]--
				s.failed = true
			}
		}
		if s.await == 0 {
			cl.markReady(uint32(i))
		}
	}
	for sh := range cl.batches {
		b := &cl.batches[sh]
		if !b.active || b.await == 0 {
			continue
		}
		for sub := range b.tgt {
			if b.tgt[sub] == int8(peer) {
				b.tgt[sub] = -1
				b.await--
				cl.inflight[peer]--
				b.failed = true
			}
		}
		if b.await == 0 {
			cl.markBReady(uint32(sh))
		}
	}
}
