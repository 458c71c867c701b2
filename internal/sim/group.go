package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"spam/internal/ring"
)

// maxTime is the sentinel "no pending event" time; far beyond any simulated
// horizon but safe to add a lookahead to without overflowing.
const maxTime = Time(1) << 62

// crossEntry is one in-flight cross-shard send sitting in an edge queue
// between the sending window and its delivery on the destination shard.
type crossEntry struct {
	at      Time // delivery time on the destination shard
	pushAt  Time // source-shard time of the Send (ordering tie-break)
	causeAt Time // schedule time (pushAt) of the event that called Send
	payload any
}

// Edge is a unidirectional cross-shard mailbox. Entries are pushed onto q by
// code running on the source engine during its window. At the window barrier
// the decision-maker — which holds the group exclusively — swaps each
// pending mailbox into its staged buffer; the destination's worker drains
// staged in one batched pass at the start of its next window, moving every
// entry onto dq (the delivery queue consumed by the edge's heap events) and
// into the destination heap. The swap is what lets drains run in parallel
// per destination while sources concurrently push new entries: q and staged
// are never touched by two goroutines at once.
//
// Delivery payloads must stay per-edge: a shard-wide FIFO would mismatch
// events and payloads, because an entry drained at a later barrier may
// deliver earlier than one already pending (its cause only reached the
// sender in a later window). Within one edge at is monotonic — the source
// serializes its sends — so FIFO pops align with event order. Pointer
// payloads do not allocate when stored in the interface, so warmed rings
// keep the cross path allocation-free.
//
// An edge's contents and their order are a pure function of the traffic the
// source generates, independent of how logical processes are packed into
// shards, which is what keeps different shard counts byte-identical.
type Edge struct {
	src, dst *Engine
	fn       func(any) // delivery callback, run on dst at entry.at
	cb       func()    // heap-event thunk: pops dq, hands payload to fn
	idx      int       // creation order: the deterministic tie-break at equal times
	q        ring.Ring[crossEntry]
	staged   ring.Ring[crossEntry]
	dq       ring.Ring[crossEntry]
}

// Send schedules payload for delivery on the edge's destination shard at
// time at. The caller must be executing on the source shard, and at must lie
// at least one group lookahead past the source's current time — the
// conservative-PDES contract that makes the delivery safe to defer to the
// next barrier.
func (ed *Edge) Send(at Time, payload any) {
	src := ed.src
	ed.q.Push(crossEntry{at: at, pushAt: src.now, causeAt: src.curPushAt, payload: payload})
	if src.soloing && at-1 < src.horizon {
		// A solo window runs with an extended horizon (no other shard has
		// work). The moment it emits a cross send, the destination must get
		// a chance to wake for the arrival — and, for a same-shard edge, so
		// must the sender itself — so the window is re-bounded to end just
		// before the delivery time.
		src.horizon = at - 1
	}
}

// GroupStats summarizes one group's conservative-window scheduling.
type GroupStats struct {
	Windows     int64 // barrier-synchronized windows (>= 2 shards active)
	SoloWindows int64 // windows one shard ran alone, without a barrier
}

// Worker release commands, written to shardWorker.op before the release word
// is bumped.
const (
	opWindow = iota // drain staged mailboxes, run events in [.., bound)
	opSolo          // same, alone: Edge.Send may re-bound the horizon
	opExit          // the run is over: the worker goroutine returns
)

// shardWorker is the per-shard coordination block of a running group. The
// window protocol is decentralized: whichever participant arrives last at a
// window barrier becomes the next decision-maker — there is no coordinator
// goroutine — so on a multi-core host a window hand-off is one atomic
// release/acquire pair absorbed by the consumer's spin loop, not a channel
// round-trip through the Go scheduler.
type shardWorker struct {
	eng      *Engine
	incoming []*Edge // edges delivering into eng, in creation (idx) order

	// next is the shard's earliest pending local time (maxTime when idle),
	// published by the owning worker after each window and read by the
	// decision-maker while it holds the group exclusively. Publishing moves
	// the old coordinator's tmin scan onto the shards themselves: each one
	// reduces its own queues in parallel at window end, and the decision-
	// maker only folds k pre-reduced values.
	next atomic.Int64

	// seq is the sense word, bumped by the decision-maker after writing op
	// and bound. The owner never compares it against an expected value —
	// only against the value it last observed — so no reset phase is needed
	// between windows (the classic sense-reversing trick, generalized to a
	// counter). parked and wake are the slow path: after the spin budget the
	// owner advertises itself parked and blocks on wake; a releaser that
	// CASes the flag back owes exactly one token. A token is only a hint to
	// look at seq again (see Group).
	seq    atomic.Uint32
	parked atomic.Uint32
	wake   chan struct{}

	op    uint32 // release command; written before seq is bumped
	bound Time   // window end (exclusive); written before seq is bumped
}

// await blocks until the owner has itself observed the release word differ
// from last, and returns the new value. The spin budget keeps a multi-core
// hand-off out of the Go scheduler entirely; the occasional Gosched keeps
// oversubscribed hosts (more shards than CPUs) live while spinning. Past the
// budget the owner parks, and every wake-up goes back to the same test.
func (w *shardWorker) await(last uint32, spin int) uint32 {
	for i := 0; i < spin; i++ {
		if s := w.seq.Load(); s != last {
			return s
		}
		if i&255 == 255 {
			runtime.Gosched()
		}
	}
	for {
		w.parked.Store(1)
		if s := w.seq.Load(); s != last {
			// The release raced our parking. If the flag is no longer ours
			// a releaser took it and owes a token, which must be consumed
			// so the channel stays empty.
			if !w.parked.CompareAndSwap(1, 0) {
				<-w.wake
			}
			return s
		}
		<-w.wake
		if s := w.seq.Load(); s != last {
			return s
		}
	}
}

// Group coordinates a set of shard engines as one conservative parallel
// discrete-event simulation. Each engine is a logical process with its own
// heap, run queue, processes, and random stream; the only cross-shard
// channel is an Edge, whose deliveries always lie at least `lookahead`
// past the sender's clock. The group advances all shards in bounded windows
// [tmin, tmin+lookahead): every event in the window is safe to execute
// concurrently because anything a shard sends during it arrives at or after
// the window's end.
//
// Window coordination is a sense-reversing barrier over atomics with
// spin-then-park waiting, driven by the workers themselves: the last shard
// to arrive at a barrier becomes the decision-maker, computes the next
// window from the per-shard published minima, stages pending mailboxes, and
// releases the active shards — running its own window inline. Mailboxes are
// drained in parallel, per destination, in one batched pass per edge.
//
// The barrier has one rule: a worker acts on op and bound only after it has
// itself observed its seq differ from the value it last acted on. A wake-up
// carries no meaning of its own, so a late or duplicate one is harmless.
// That matters because release bumps seq before it looks at parked: a
// releaser descheduled between the two finds its worker — which saw the
// bump while spinning, ran the window, arrived and parked for the next
// release — and wakes it. A worker that took that stale wake-up for a
// release would re-run the consumed command and arrive a second time, and
// the next window would be decided while a shard was still running.
type Group struct {
	lookahead Time
	engs      []*Engine
	edges     []*Edge

	workers []*shardWorker
	arrive  atomic.Int32 // barrier: participants yet to finish the window
	runDone chan int     // decision-maker -> Run caller: doneAll/doneHorizon
	wg      sync.WaitGroup
	spin    int  // per-wait spin budget (0 on a single-CPU host)
	horizon Time // active Run's horizon (0 = none)

	pend   []Time         // scratch: per-shard earliest pending time
	active []*shardWorker // scratch: shards inside the current window
	busy   []*Edge        // scratch: non-empty mailboxes at a decision

	// aborted is set by the first worker whose window panicked (a workload
	// or lookahead-contract violation); panicVal carries the value so Run
	// can re-raise it on its caller. A panicked worker never arrives at its
	// barrier, so no sibling can become decision-maker afterwards; the
	// panicking worker signals runDone itself. Siblings may still be inside
	// that window, reading op and bound, when Run sends everyone home: after
	// an abort a release is a bare wake-up and aborted is the exit command.
	aborted  atomic.Bool
	panicVal any

	stats GroupStats
}

// Run outcomes carried on runDone.
const (
	doneAll     = iota // no pending work anywhere: the run is complete
	doneHorizon        // every pending time lies beyond the horizon
	doneAbort          // a shard window panicked; panicVal holds the value
)

// NewGroup builds shards engines coordinated with the given lookahead (the
// minimum cross-shard latency; for the SP model, the switch fabric latency).
// Shard i's random stream is derived from seed and i.
func NewGroup(seed uint64, shards int, lookahead Time) *Group {
	if shards < 1 {
		panic(fmt.Sprintf("sim: group needs at least 1 shard, got %d", shards))
	}
	if lookahead <= 0 {
		panic("sim: group lookahead must be positive")
	}
	g := &Group{
		lookahead: lookahead,
		runDone:   make(chan int, 1),
	}
	for i := 0; i < shards; i++ {
		e := NewEngine(seed + uint64(i)*0x9e3779b97f4a7c15)
		e.shard = i // local seq already starts at crossSeqBase (NewEngine)
		g.engs = append(g.engs, e)
		g.workers = append(g.workers, &shardWorker{eng: e, wake: make(chan struct{}, 1)})
	}
	g.pend = make([]Time, shards)
	return g
}

// Engines returns the shard engines in index order.
func (g *Group) Engines() []*Engine { return g.engs }

// Lookahead returns the group's window size.
func (g *Group) Lookahead() Time { return g.lookahead }

// Edge registers a cross-shard channel from src to dst delivering through
// fn. Creation order is the deterministic tie-break between edges whose
// heads carry equal timestamps at a drain, so callers must create edges in
// an order that does not depend on the shard count (e.g. by (src node, dst
// node)).
func (g *Group) Edge(src, dst *Engine, fn func(any)) *Edge {
	ed := &Edge{src: src, dst: dst, fn: fn, idx: len(g.edges)}
	ed.cb = func() { ed.fn(ed.dq.Pop().payload) }
	g.edges = append(g.edges, ed)
	return ed
}

// prepare rebuilds each worker's incoming-edge list (edges are registered
// between construction and the first Run; the list only changes if more
// were added since).
func (g *Group) prepare() {
	total := 0
	for _, w := range g.workers {
		total += len(w.incoming)
	}
	if total == len(g.edges) {
		return
	}
	for _, w := range g.workers {
		w.incoming = w.incoming[:0]
	}
	for _, ed := range g.edges {
		w := g.workers[ed.dst.shard]
		w.incoming = append(w.incoming, ed)
	}
}

// barrierSpin picks the await spin budget: on a single visible CPU spinning
// only steals the quantum from whichever goroutine must run next, so workers
// park immediately; with real parallelism a few thousand iterations (a
// handful of microseconds) absorb nearly every window hand-off.
func barrierSpin() int {
	if runtime.GOMAXPROCS(0) < 2 {
		return 0
	}
	return 4096
}

// drainShard batch-drains every staged mailbox delivering into w's shard:
// one pass per edge, all entries moved in (per-edge) FIFO order onto the
// delivery queue and into the destination heap. No cross-edge merge is
// needed: a cross delivery's heap key (at, pushAt, causeAt*nedges+edgeIdx)
// is unique per destination — one edge's entries are serialized by its
// source and distinct edges differ in the index component — so the heap
// orders deliveries identically no matter which order they were pushed in.
// Among same-time events on the receiving shard a delivery therefore sorts
// by when its cause ran (pushAt), then by the cause's own schedule time
// (causeAt) — exactly where a serial engine, which pushes chronologically,
// would have placed it — and only chains time-symmetric at both levels fall
// to edge creation order. All components are functions of the traffic, not
// of the shard packing, so every shard count produces the same order.
func (g *Group) drainShard(w *shardWorker) {
	nedges := uint64(len(g.edges))
	for _, ed := range w.incoming {
		n := ed.staged.Len()
		if n == 0 {
			continue
		}
		dst := ed.dst
		base := uint64(ed.idx)
		for i := 0; i < n; i++ {
			ent := ed.staged.Pop()
			if ent.at <= dst.now {
				panic(fmt.Sprintf(
					"sim: cross-shard delivery at %v not after destination time %v (send violated the lookahead contract)",
					ent.at, dst.now))
			}
			ed.dq.Push(ent)
			dst.pushCross(ent.at, ent.pushAt, ed.cb, uint64(ent.causeAt)*nedges+base)
		}
	}
}

// runShardWindow performs one shard's share of a window: drain the staged
// mailboxes, execute every local event strictly before bound, and publish
// the new earliest pending time for the next decision.
func (g *Group) runShardWindow(w *shardWorker) {
	g.drainShard(w)
	w.eng.runWindow(w.bound)
	t, ok := w.eng.nextTime()
	if !ok {
		t = maxTime
	}
	w.next.Store(int64(t))
}

// release hands worker w its next command. The plain op/bound stores are
// published by the atomic bump of the sense word; a parked owner is sent one
// wake token, at most one per time it parks (the channel never fills).
func (g *Group) release(w *shardWorker, op uint32, bound Time) {
	if !g.aborted.Load() {
		w.op = op
		w.bound = bound
	}
	w.seq.Add(1)
	if w.parked.Load() == 1 && w.parked.CompareAndSwap(1, 0) {
		w.wake <- struct{}{}
	}
}

// decide runs the window scheduler. The caller holds the group exclusively:
// every worker is parked, or past its last shared-state access on the way to
// parking. self is the calling worker (nil when the Run caller makes the
// first decision). decide returns when the caller stops being the decision-
// maker: another worker was released and the last arriver inherits the role,
// or the run is over and runDone has been signalled.
func (g *Group) decide(self *shardWorker) {
	for {
		if g.aborted.Load() {
			// A window panicked; the panicking worker has signalled Run.
			return
		}
		// Fold the per-shard published minima with the heads of pending
		// mailboxes: entries sent during the last window are not yet in any
		// heap, but bound the next window just the same.
		pend := g.pend
		for i, w := range g.workers {
			pend[i] = Time(w.next.Load())
		}
		busy := g.busy[:0]
		for _, ed := range g.edges {
			if ed.q.Len() > 0 {
				busy = append(busy, ed)
				if h := ed.q.Peek().at; h < pend[ed.dst.shard] {
					pend[ed.dst.shard] = h
				}
			}
		}
		g.busy = busy
		tmin, second := maxTime, maxTime
		for _, t := range pend {
			if t < tmin {
				second, tmin = tmin, t
			} else if t < second {
				second = t
			}
		}
		if tmin == maxTime {
			g.runDone <- doneAll
			return
		}
		if g.horizon > 0 && tmin > g.horizon {
			g.runDone <- doneHorizon
			return
		}
		wEnd := tmin + g.lookahead
		if g.horizon > 0 && wEnd > g.horizon+1 {
			wEnd = g.horizon + 1
		}
		active := g.active[:0]
		for i, w := range g.workers {
			if pend[i] < wEnd {
				active = append(active, w)
			}
		}
		g.active = active
		// Stage the pending mailboxes of every active destination: the swap
		// hands the backlog to the destination's worker while sources push
		// new entries onto a fresh ring, so batched drains run concurrently
		// with the window itself. An inactive destination keeps its backlog
		// queued — every entry in it lies at or beyond wEnd, or the shard
		// would be active.
		for _, ed := range busy {
			if pend[ed.dst.shard] < wEnd {
				if ed.staged.Len() != 0 {
					panic("sim: staged mailbox not drained by its window")
				}
				ed.staged, ed.q = ed.q, ed.staged
			}
		}
		if len(active) == 1 {
			// Solo window: no other shard has work before wEnd, so the one
			// active shard may safely run up to one lookahead past the
			// second-earliest pending time — anything the others will ever
			// send arrives at or after that — with Edge.Send re-bounding
			// the horizon at the first cross send.
			w := active[0]
			bound := second + g.lookahead
			if g.horizon > 0 && bound > g.horizon+1 {
				bound = g.horizon + 1
			}
			g.stats.SoloWindows++
			if w == self {
				// The decision-maker is the solo shard: run inline, still
				// exclusive, and keep deciding. A chain of solo windows
				// costs no hand-offs at all.
				w.bound = bound
				w.eng.soloing = true
				g.runShardWindow(w)
				w.eng.soloing = false
				continue
			}
			g.arrive.Store(1)
			g.release(w, opSolo, bound)
			return
		}
		g.stats.Windows++
		g.arrive.Store(int32(len(active)))
		selfActive := false
		for _, w := range active {
			if w == self {
				selfActive = true
				continue
			}
			g.release(w, opWindow, wEnd)
		}
		if !selfActive {
			return
		}
		// Run our own share inline; if we also arrive last, keep the
		// decision-maker role without a single hand-off.
		self.bound = wEnd
		g.runShardWindow(self)
		if g.arrive.Add(-1) == 0 {
			continue
		}
		return
	}
}

// worker is one shard's goroutine for the duration of a Run: await a
// command, perform the window, arrive at the barrier — and, as the last
// arriver, take over scheduling. last is the shard's seq value at spawn
// time: the word persists across Runs (RunChecked slices a simulation into
// watchdog budgets, each a fresh Run on the same group), so a worker
// starting from zero would fall straight through its first await and read
// the previous run's sticky opExit before this run's decision-maker had
// written anything.
func (g *Group) worker(w *shardWorker, last uint32) {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			// First panic wins; later ones (other shards of the same
			// window) are dropped with their goroutines. The non-blocking
			// send pairs with runDone's single reader.
			if g.aborted.CompareAndSwap(false, true) {
				g.panicVal = r
			}
			select {
			case g.runDone <- doneAbort:
			default:
			}
		}
	}()
	for {
		last = w.await(last, g.spin)
		if g.aborted.Load() {
			return
		}
		switch w.op {
		case opExit:
			return
		case opSolo:
			w.eng.soloing = true
			g.runShardWindow(w)
			w.eng.soloing = false
		default:
			g.runShardWindow(w)
		}
		if g.arrive.Add(-1) == 0 {
			g.decide(w)
		}
	}
}

// drainAll moves every entry still sitting in a mailbox into its destination
// engine. It runs with the group quiescent, at the end of a Run: a horizon
// stop may leave future deliveries queued, and Pending() must see them in
// the shard heaps. (After a completed run every mailbox is empty — pending
// entries would have bounded tmin.)
func (g *Group) drainAll() {
	nedges := uint64(len(g.edges))
	for _, ed := range g.edges {
		for _, q := range [2]*ring.Ring[crossEntry]{&ed.staged, &ed.q} {
			for q.Len() > 0 {
				ent := q.Pop()
				dst := ed.dst
				if ent.at <= dst.now {
					panic(fmt.Sprintf(
						"sim: cross-shard delivery at %v not after destination time %v (send violated the lookahead contract)",
						ent.at, dst.now))
				}
				ed.dq.Push(ent)
				dst.pushCross(ent.at, ent.pushAt, ed.cb, uint64(ent.causeAt)*nedges+uint64(ed.idx))
			}
		}
	}
}

// Run drives every shard to completion (or to the optional horizon),
// returning a deadlock error if workload processes remain blocked anywhere
// once no events — local or in-flight on an edge — are left. On return all
// shard clocks read the same time: the maximum across shards (or the
// horizon), so Now() behaves exactly as after a serial run.
func (g *Group) Run(horizon Time) error {
	g.horizon = horizon
	g.prepare()
	g.spin = barrierSpin()
	g.wg.Add(len(g.workers))
	for i, w := range g.workers {
		t, ok := g.engs[i].nextTime()
		if !ok {
			t = maxTime
		}
		w.next.Store(int64(t))
		go g.worker(w, w.seq.Load())
	}
	g.decide(nil)
	outcome := <-g.runDone
	// On a normal outcome every worker is parked and the group is exclusive
	// again; on an abort, stragglers finish their window, fail to complete
	// the barrier (the panicked shard never arrives), and find aborted set.
	// Either way the sticky release below sends them home, and wg.Wait joins.
	for _, w := range g.workers {
		g.release(w, opExit, 0)
	}
	g.wg.Wait()
	if outcome == doneAbort {
		panic(g.panicVal)
	}
	g.drainAll()
	if outcome == doneHorizon {
		for _, e := range g.engs {
			e.now = horizon
		}
		return nil
	}
	var tmax Time
	live := 0
	for _, e := range g.engs {
		if e.now > tmax {
			tmax = e.now
		}
		live += e.live
	}
	for _, e := range g.engs {
		e.now = tmax
	}
	if live > 0 {
		return g.deadlockError(tmax, live)
	}
	return nil
}

// Pending reports whether any shard still has work to execute. Run drains
// every edge mailbox before returning at a horizon, so the shard engines'
// own queues are the complete picture.
func (g *Group) Pending() bool {
	for _, e := range g.engs {
		if e.Pending() {
			return true
		}
	}
	return false
}

// RunAll runs with no horizon and panics on deadlock, mirroring
// Engine.RunAll.
func (g *Group) RunAll() {
	if err := g.Run(0); err != nil {
		panic(err)
	}
}

func (g *Group) deadlockError(at Time, live int) error {
	var stuck []string
	for _, e := range g.engs {
		for _, p := range e.procs {
			if !p.finished && !p.daemon && p.parkedAt != "" {
				stuck = append(stuck, fmt.Sprintf("%s (waiting: %s)", p.name, p.parkedAt))
			}
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock at t=%v: %d workload proc(s) blocked across %d shards: %v",
		at, live, len(g.engs), stuck)
}

// Stats snapshots the group's scheduling statistics.
func (g *Group) Stats() GroupStats { return g.stats }
