// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which the SP hardware model
// (internal/hw) and everything above it runs.
//
// The kernel follows the classic process-interaction style: simulated
// programs are written as ordinary sequential Go code running in a Proc
// (a runtime coroutine, see proc.go), and virtual time advances only through
// the event queue. Exactly one of them — the Run caller or a single process
// — executes at any instant, and control moves by coroutine switch, never
// through the Go scheduler, so a simulation is deterministic and reproducible.
// A parked process resumes the next one itself (see Engine): one switch per
// hand-off between two processes, at most two amortised among many.
//
// Events are plain values ordered on (at, pushAt, seq): a timing wheel holds
// those due within 8,192 ns, nearly all, and an inline 4-ary min-heap the
// rest (see Engine.events); same-time wakeups (Advance(0), Cond.Signal)
// bypass both through a FIFO run queue. The queue holds one entry per parked
// process, per timer and per busy Server — the job in service, not the jobs
// queued behind it (see Server) — so its length follows the size of the
// machine, not the packets in flight. No path boxes events or allocates in
// steady state, which is what keeps host-time events/sec high (measured by
// engine_bench_test.go, required by TestEngineSteadyStateZeroAlloc).
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"spam/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Microseconds reports t as a floating-point number of microseconds, the
// natural unit of the paper's measurements.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

// event is a single scheduled occurrence. Exactly one of fn and proc is set:
// Callback events run inline in the scheduler loop (used by hardware
// pipeline stages); process wakeups carry the proc's preallocated wake
// closure, which deposits the proc in Engine.wake for the scheduler loop to
// switch to. Events are plain values — they live in the heap arena or the
// run queue, never behind a pointer, so scheduling performs no allocation
// and no interface boxing.
//
// The struct is deliberately exactly four fields / 32 bytes. The Go
// compiler only keeps struct values in registers up to this size; one more
// word (e.g. a *Proc field next to fn) forces every copy through memory and
// costs ~4x on BenchmarkProcAdvance / BenchmarkEngineCallbackEvents. That
// is why process wakeups are folded into fn rather than carried as a fifth
// field.
type event struct {
	at     Time
	pushAt Time   // logical schedule time: when the cause of this event ran
	seq    uint64 // tie-break for determinism: FIFO among same-(at, pushAt) events
	fn     func()
}

// before is the (at, pushAt, seq) strict-weak order shared by the heap and
// the run queue; it is what makes event execution order a pure function of
// the schedule calls, independent of Go's scheduler.
//
// Among events pushed by At, After and process wake-ups pushAt is redundant:
// pushes happen in clock order, so seq alone sorts same-time events by when
// they were scheduled. It is in the key for AfterKeyed events, whose seq is
// not a push counter: pushAt places them among same-time local events by
// when they were scheduled.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pushAt != b.pushAt {
		return a.pushAt < b.pushAt
	}
	return a.seq < b.seq
}

// runqEvent is the slim run-queue element: a same-time event needs no
// timestamps (its at and pushAt are both the current clock, which cannot
// advance while the queue is non-empty) and no seq (the queue is FIFO), so
// only the callback remains. Keeping the hot yield/signal path to one-word
// appends is worth ~1.5x on BenchmarkProcYield.
type runqEvent struct {
	fn func()
}

// nop is the callback of a handoff event: the woken proc is already in
// e.wake, so the event itself has nothing to do.
func nop() {}

// Engine owns the virtual clock and the event queue and drives all
// processes.
//
// Whoever is executing — the Run caller or a process that just parked —
// runs the scheduler loop itself. A process whose own wakeup is the next
// event simply keeps running, and callbacks run where they are popped:
// neither costs a switch. When the next wakeup belongs to another process q,
// the parked one resumes q right there and stays suspended in that call as
// q's parent, so the processes in control form a chain rooted in drive. If q
// is already on the chain — an ancestor, suspended in a resume — the parked
// one yields instead, and so does each level in turn until q's resume
// returns. Two processes waking each other alternate resume and yield: one
// coroutine switch per hand-off. Among many, every resume puts one process
// on the chain and every such yield takes one off, so yields never outnumber
// resumes and a hand-off costs at most two switches amortised (Switches,
// Handoffs; eight processes round-robin read 1.75).
type Engine struct {
	now     Time
	seq     uint64
	horizon Time // active Run's horizon (0 = none); read by the exec loop

	// The queue holds future events in two tiers sharing one order; popMin
	// takes the earlier head. near, the timing wheel: slot i holds up to
	// slotCap events of one 64 ns window, sorted with the minimum last, and
	// bit i of nearOcc marks it non-empty. events, the far queue: a 4-ary
	// min-heap (half a binary heap's depth, one cache line of children) of
	// the events beyond the span or whose slot was full.
	near    [nearSlots][slotCap]event
	nearN   [nearSlots]uint8
	nearOcc [nearSlots / 64]uint64
	events  []event

	// runq holds same-time events (scheduled with at <= now) in FIFO order;
	// runqHead is the index of the next entry to run. Every entry's at is
	// the current now: the clock only advances when the run queue is empty.
	// Heap events with at == now always precede run-queue entries — they
	// were keyed before the clock reached now, so their seq is smaller.
	runq     []runqEvent
	runqHead int

	// wake receives the process deposited by a wake closure (Proc.wakeFn)
	// the instant its event fires; the scheduler loops read-and-clear it
	// after each event to perform the control transfer. It is what lets the
	// event struct carry only a callback (see the event comment).
	wake *Proc

	// handoff, when non-nil, is a process wakeup that bypassed the queues
	// entirely: Cond.Signal parks it here when the woken process would be
	// the very next event anyway (run queue drained, no same-time heap
	// events). Every scheduler loop consumes it before consulting the
	// queues, which shaves the queue round-trip off the signal->run path
	// (see BenchmarkCondSignalPingPong).
	handoff *Proc

	procs   []*Proc
	live    int   // workload (non-daemon) procs that have not finished
	running *Proc // in control, or woken and about to be switched to; else nil

	rng *Rand

	tracer *trace.Recorder

	// curPushAt is the schedule time (pushAt) of the event currently
	// executing — the second component of its ordering key, and the cause
	// component of the keys AfterKeyed composes.
	curPushAt Time

	// EventsRun counts executed events (performance/sanity diagnostics).
	EventsRun int64
	// Handoffs counts the times control passed to a process other than the
	// one that parked (or from drive to a process); Switches counts the
	// coroutine switches that took: resumes, and yields toward an ancestor.
	Handoffs, Switches int64
}

// NewEngine returns an engine with its clock at zero and a deterministic
// random stream derived from seed. The local seq counter starts at
// crossSeqBase (see AfterKeyed).
func NewEngine(seed uint64) *Engine {
	return &Engine{
		seq: crossSeqBase,
		rng: NewRand(seed),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *Rand { return e.rng }

// SetTracer attaches a trace recorder; nil detaches (the default). The
// recorder observes nothing by itself — instrumented layers read it via
// Tracer and emit events when it is non-nil.
func (e *Engine) SetTracer(r *trace.Recorder) { e.tracer = r }

// Tracer returns the attached trace recorder, or nil when tracing is off.
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// push routes one event: future times into the queue, current time onto the
// run queue. The logical schedule time is the current clock. Run-queue
// entries do not consume a seq: FIFO position is their order, and nothing
// ever compares a run-queue entry's seq against a heap event's.
func (e *Engine) push(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	if t == e.now {
		e.runq = append(e.runq, runqEvent{fn: fn})
		return
	}
	e.seq++
	e.enqueue(event{at: t, pushAt: e.now, seq: e.seq, fn: fn})
}

// crossSeqBase is where every engine's local seq counter starts, so that
// AfterKeyed events, whose seq is always below it, precede local events
// among same-(at, pushAt) ties.
const crossSeqBase = uint64(1) << 62

// AfterKeyed schedules fn to run d (> 0) nanoseconds from now with an
// ordering key that does not depend on push order: pushAt is the current
// clock and seq is (schedule time of the currently executing event) × lanes
// + lane. Among events that tie on (at, pushAt), keyed ones therefore run
// before local ones, and among themselves by what caused them and then by
// lane, whichever was pushed first. The switch delivers every fabric hop
// this way, one lane per (source, destination) pair — a key is unique
// because a source serializes its injections — so the order in which
// same-instant arrivals reach their nodes is a function of the traffic, not
// of the order the senders' events happened to pop. The kv goldens pin it.
func (e *Engine) AfterKeyed(d Time, lane, lanes uint64, fn func()) {
	e.enqueue(event{at: e.now + d, pushAt: e.now, seq: uint64(e.curPushAt)*lanes + lane, fn: fn})
}

// At schedules fn to run inline in the scheduler loop at virtual time t. If t is
// in the past it runs at the current time (after already-queued same-time
// events).
func (e *Engine) At(t Time, fn func()) { e.push(t, fn) }

// After schedules fn to run d nanoseconds of virtual time from now.
func (e *Engine) After(d Time, fn func()) { e.push(e.now+d, fn) }

// schedule queues a wakeup for p at time t: its preallocated wake closure,
// which deposits p into e.wake when the event fires.
func (e *Engine) schedule(p *Proc, t Time) { e.push(t, p.wakeFn) }

// The near queue's geometry, measured in EXPERIMENTS.md ("What the event
// heap holds"): 97.6-100 % of pushes are due within 8,192 ns (the 1.3 us
// poll, us-scale adapter stages) and a 64 ns slot rarely holds more than
// four. 128 x 4 x 32 B keeps Engine at 16 KB: 256 slots made it a 44 KB
// large-object allocation, about 20 % more am_echo setup_s. nearOcc is two
// words, so nearSlots is 128 exactly.
const (
	slotShift = 6   // 64 ns slots
	nearSlots = 128 // slots in one lap
	slotCap   = 4   // events a slot holds before spilling to the heap
	nearSpan  = nearSlots << slotShift
)

// enqueue files a future event: into its slot when that is due within
// nearSpan of the start of now's slot (unsigned, so nothing behind it
// enters) and has room, else into the far heap.
func (e *Engine) enqueue(ev event) {
	i := int(ev.at>>slotShift) & (nearSlots - 1)
	n := int(e.nearN[i])
	if uint64(ev.at-e.now&^(1<<slotShift-1)) >= nearSpan || n == slotCap {
		e.heapPush(ev)
		return
	}
	s := &e.near[i]
	for ; n > 0 && before(&s[n-1], &ev); n-- {
		s[n] = s[n-1]
	}
	s[n] = ev
	e.nearN[i]++
	e.nearOcc[i>>6] |= 1 << (i & 63)
}

// nearMin returns the slot holding the near queue's minimum, or -1 when it is
// empty. Every near event is due within one lap of now's slot (enqueue's
// span check), so that is the first occupied slot from now's.
func (e *Engine) nearMin() int {
	c := int(e.now>>slotShift) & (nearSlots - 1)
	w := c >> 6
	if m := e.nearOcc[w] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	if m := e.nearOcc[w^1]; m != 0 {
		return (w^1)<<6 | bits.TrailingZeros64(m)
	}
	if m := e.nearOcc[w]; m != 0 { // behind now's slot: the next lap
		return w<<6 | bits.TrailingZeros64(m)
	}
	return -1
}

// popMin removes and returns the queue's minimum, the earlier of the near
// minimum and the heap top, or reports false when the queue is empty or the
// minimum lies beyond the horizon.
func (e *Engine) popMin() (event, bool) {
	far := len(e.events) > 0
	if i := e.nearMin(); i >= 0 {
		n := e.nearN[i] - 1
		s := &e.near[i]
		if !far || before(&s[n], &e.events[0]) {
			if e.horizon > 0 && s[n].at > e.horizon {
				return event{}, false
			}
			ev := s[n]
			s[n] = event{}
			e.nearN[i] = n
			if n == 0 {
				e.nearOcc[i>>6] &^= 1 << (i & 63)
			}
			return ev, true
		}
	}
	if !far || e.horizon > 0 && e.events[0].at > e.horizon {
		return event{}, false
	}
	return e.heapPop(), true
}

// sameTimeQueued reports whether an event due now is queued; such events
// precede the run queue (see the runq field comment). A near one is in now's
// slot, and is its minimum.
func (e *Engine) sameTimeQueued() bool {
	i := int(e.now>>slotShift) & (nearSlots - 1)
	if n := e.nearN[i]; n > 0 && e.near[i][n-1].at == e.now {
		return true
	}
	return len(e.events) > 0 && e.events[0].at == e.now
}

// heapPush sift-ups ev into the 4-ary heap, moving parents into the hole
// rather than swapping.
func (e *Engine) heapPush(ev event) {
	h := append(e.events, ev)
	e.events = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// heapPop removes and returns the minimum event, sifting the displaced last
// element down through the cheapest of up to four children per level. The
// vacated slot is zeroed so the arena never pins dead fn closures or procs.
func (e *Engine) heapPop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			min := c
			for j := c + 1; j < end; j++ {
				if before(&h[j], &h[min]) {
					min = j
				}
			}
			if !before(&h[min], &last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return top
}

// nextEvent removes and returns the next event in (at, pushAt, seq) order, or
// reports false when the run is over (queue empty, or every remaining event
// lies beyond the horizon). Run-queue entries are at the current time; they
// run before any queued event scheduled later, but after queued events at
// now (those carry smaller seqs — see the runq field comment).
func (e *Engine) nextEvent() (event, bool) {
	if q := e.handoff; q != nil {
		// A Signal that bypassed the queues: it was provably the next event
		// when signalled, and anything pushed since carries a larger seq.
		// Its wakeup was logically pushed at this instant. Depositing q in
		// e.wake directly (rather than routing through q.wakeFn) saves the
		// indirect call on the signal fast path.
		e.handoff = nil
		e.curPushAt = e.now
		e.wake = q
		return event{at: e.now, pushAt: e.now, fn: nop}, true
	}
	if e.runqHead < len(e.runq) && !e.sameTimeQueued() {
		rq := e.runq[e.runqHead]
		e.runq[e.runqHead] = runqEvent{}
		e.runqHead++
		if e.runqHead == len(e.runq) {
			e.runq = e.runq[:0]
			e.runqHead = 0
		}
		e.curPushAt = e.now
		return event{at: e.now, pushAt: e.now, fn: rq.fn}, true
	}
	ev, ok := e.popMin()
	if !ok {
		return event{}, false
	}
	e.now = ev.at
	e.curPushAt = ev.pushAt
	return ev, true
}

// exec is the scheduler loop as run by a process, entered when self parks.
// It executes events until self's own wakeup fires (return, keep running —
// no switch at all). When an event wakes another process q, self resumes q
// nested, or, q being an ancestor, yields one level toward it; whichever
// call it is suspended in returns once running names self (return), an
// ancestor (yield again) or nobody — q finished, or the run is over — and
// then the loop carries on. When the run is over every level yields in turn,
// so after Run each unfinished process is parked at a yield, which is all
// Release assumes. A yield returns false if self was released instead of
// woken. A pending handoff is consumed first, inside nextEvent.
func (e *Engine) exec(self *Proc) bool {
	for {
		ev, ok := e.nextEvent()
		if !ok {
			e.running = nil
			return self.yield(struct{}{})
		}
		e.EventsRun++
		ev.fn()
		q := e.wake
		if q == nil {
			continue
		}
		e.wake = nil
		if q.finished {
			continue
		}
		e.running = q
		if q == self {
			return true
		}
		e.Handoffs++
		for q != nil && q != self {
			e.Switches++
			if q.inResume {
				return self.yield(struct{}{})
			}
			self.inResume = true
			q.resume()
			self.inResume = false
			q = e.running
		}
		if q == self {
			return true
		}
	}
}

// drive is the root of the chain, under Run: it resumes the process running
// names when no process is in control — at the start, or after the last one
// on the chain finished — and executes events here until one wakes a
// process. It returns when the run is over. A process's panic surfaces here,
// out of resume, having finished every process on the chain on its way.
func (e *Engine) drive() {
	for {
		if p := e.running; p != nil {
			e.Switches++
			p.resume()
			continue
		}
		ev, ok := e.nextEvent()
		if !ok {
			return
		}
		e.EventsRun++
		ev.fn()
		if q := e.wake; q != nil {
			e.wake = nil
			if !q.finished {
				e.running = q
				e.Handoffs++
			}
		}
	}
}

// Run executes events until the queue is empty or the optional horizon is
// reached (horizon <= 0 means no horizon). It returns an error if workload
// processes remain blocked when no more events can occur (a deadlock), with
// a diagnosis of what each blocked process was waiting for. A horizon stop
// leaves processes parked for the next Run to resume, or Release to free.
func (e *Engine) Run(horizon Time) error {
	e.horizon = horizon
	e.drive()
	if horizon > 0 && e.Pending() {
		e.now = horizon
		return nil
	}
	if e.live > 0 {
		return e.deadlockError()
	}
	return nil
}

// Live reports the number of workload (non-daemon) processes that have not
// finished.
func (e *Engine) Live() int { return e.live }

// Pending reports whether the engine still has work to execute: a queued
// event, a runnable process, or a pending handoff. After Run returned at a
// horizon it distinguishes "paused" from "finished".
func (e *Engine) Pending() bool {
	return e.handoff != nil || e.runqHead < len(e.runq) ||
		e.nearOcc != [nearSlots / 64]uint64{} || len(e.events) > 0
}

// RunAll runs with no horizon and panics on deadlock; it is the common form
// for benchmarks and examples where a deadlock is a programming error.
func (e *Engine) RunAll() {
	if err := e.Run(0); err != nil {
		panic(err)
	}
}

func (e *Engine) deadlockError() error {
	var stuck []string
	for _, p := range e.procs {
		if !p.finished && !p.daemon && p.parkedAt != "" {
			stuck = append(stuck, fmt.Sprintf("%s (waiting: %s)", p.name, p.parkedAt))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock at t=%v: %d workload proc(s) blocked: %v",
		e.now, e.live, stuck)
}

// Go spawns a workload process named name running fn, starting at the
// current virtual time. The engine's Run does not terminate successfully
// while a workload process is blocked.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon spawns a daemon process (e.g. a hardware engine) that is allowed
// to remain blocked forever when the workload drains.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}
