//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a sequential program whose execution is
// interleaved with others only at explicit virtual-time operations
// (Advance, Wait, ...). A Proc must only be used from its own body, which
// runs as a runtime coroutine (iter.Pull): resume switches to it from
// whoever calls it — drive, or a parked process's scheduler loop — and
// returns when it yields or ends; stop makes a parked yield return false. A
// switch stays on one thread and never enters the Go scheduler.
type Proc struct {
	eng      *Engine
	name     string
	daemon   bool
	resume   func() (struct{}, bool)
	yield    func(struct{}) bool
	stop     func()
	finished bool   // body returned, panicked, or was released
	inResume bool   // suspended in a resume call: an ancestor of the one in control
	parkedAt string // wait reason while parked on a Cond (diagnostics)

	// wakeFn, allocated once at spawn, deposits this proc into the engine's
	// wake slot when its scheduled wakeup event fires. Carrying the wakeup
	// as a func() keeps the event struct at four fields, which the compiler
	// can hold in registers (see the event comment in sim.go).
	wakeFn func()

	// AdvanceWhile state: step is the caller's predicate for the wait in
	// progress, stepD its period, and stepFn (allocated once at spawn, like
	// wakeFn) the event callback that runs step inline in the scheduler loop.
	step   func() bool
	stepD  Time
	stepFn func()

	// AdvanceSeq state: the segments still to charge, from segI on, and
	// nextSeg (allocated once at spawn), the step that feeds them to stepFn.
	segs    []Time
	segI    int
	nextSeg func() bool
}

// Detach permanently parks the calling process and never returns. The
// process is reclassified as a daemon — it no longer counts toward the
// engine's live-workload total, so the run can complete (and deadlock
// detection stays meaningful) while the process stays parked until
// Engine.Release unwinds it. It models a fail-stop node: the program simply
// ceases, mid-call, with reason recorded for diagnostics.
func (p *Proc) Detach(reason string) {
	if !p.daemon {
		p.daemon = true
		p.eng.live--
	}
	p.parkedAt = reason
	// No wakeup is ever scheduled: park runs the scheduler loop until
	// control moves elsewhere, then yields for good.
	p.park()
	panic("sim: detached process resumed")
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// released is the panic that unwinds a process Engine.Release stopped.
type released struct{}

// park deschedules p: it keeps control and runs the scheduler loop itself
// (Engine.exec), returning once p's next wakeup has fired. A released
// process unwinds instead, here and at any park its deferred calls attempt.
func (p *Proc) park() {
	if p.finished || !p.eng.exec(p) {
		panic(released{})
	}
}

// spawn queues a new process; its first resume, at the current time, runs fn.
func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{eng: e, name: name, daemon: daemon}
	p.wakeFn = func() { e.wake = p }
	p.stepFn = func() {
		if p.step() {
			e.push(e.now+p.stepD, p.stepFn)
		} else {
			e.wake = p
		}
	}
	p.nextSeg = func() bool {
		if p.segI == len(p.segs) {
			return false
		}
		p.stepD = max(p.segs[p.segI], 0)
		p.segI++
		return true
	}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Back to whoever resumed it, and a real panic with it, out of resume or stop.
			p.finished = true
			e.running = nil
			if r := recover(); r != nil && r != (released{}) {
				panic(r)
			}
		}()
		fn(p)
		if !daemon {
			e.live--
		}
	})
	e.procs = append(e.procs, p)
	if !daemon {
		e.live++
	}
	e.schedule(p, e.now)
	return p
}

// Release unwinds every unfinished process — parked for good, detached, or
// never started — so that it and what its stack references can be collected.
// Only once a run's verdict is final: a released process never runs again.
func (e *Engine) Release() {
	for i := 0; i < len(e.procs); i++ { // an unwinding body may spawn
		if p := e.procs[i]; !p.finished {
			p.finished = true
			p.stop()
		}
	}
}

// Advance charges d nanoseconds of virtual time to this process: the
// process is descheduled and resumes once the clock has moved d forward.
// Advance(0) is a yield: same-time events queued before it run first.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p, p.eng.now+d)
	p.park()
}

// AdvanceWhile is Advance(d) repeated while step reports true, without the
// process being switched to in between: the wake-up event runs step inline,
// in whichever scheduler loop pops it, and while step returns true re-arms
// itself at now+d with exactly the key the process's own next Advance(d)
// would have pushed (same at, pushAt = now, next local seq). On the first
// false the process wakes as if from a plain Advance(d).
// Event times, ordering keys and EventsRun are therefore identical to the
// loop
//
//	for { p.Advance(d); if !step() { break } }
//
// provided step does only what the process itself would have done at that
// instant (scheduling events included) and never blocks: it has no process
// to park. A step that returns false must leave no trace — the woken process
// redoes that instant's work through its ordinary code. Hand-offs are not
// identical: they fall, but a run may make at most one more per process that
// finishes, since a finished process returns control to whichever process
// last resumed it, which the skipped wake-ups change (FuzzEngine's
// found/finish-returns-elsewhere seed).
func (p *Proc) AdvanceWhile(d Time, step func() bool) {
	if d < 0 {
		d = 0
	}
	p.step, p.stepD = step, d
	p.eng.push(p.eng.now+d, p.stepFn)
	p.park()
}

// AdvanceSeq is Advance(d) followed by Advance of each of more, in order,
// with the process woken only after the last: the intermediate wake-ups run
// inline as AdvanceWhile steps, each pushing the next segment with exactly
// the key the process's own next Advance would have pushed. Event times,
// ordering keys and EventsRun are those of the plain calls; hand-offs fall,
// with AdvanceWhile's bound of at most one more per process that finishes.
// It is for a run of charges with nothing read in between; a charge
// followed by a read of shared state is a plain Advance.
func (p *Proc) AdvanceSeq(d Time, more ...Time) {
	p.segs, p.segI = append(p.segs[:0], more...), 0
	p.AdvanceWhile(d, p.nextSeg)
}

// Yield lets all already-scheduled same-time events run before continuing.
func (p *Proc) Yield() { p.Advance(0) }

// Cond is a FIFO condition variable for simulated processes. The zero value
// is ready to use after setting Name (used in deadlock diagnostics).
type Cond struct {
	Name    string
	waiters []*Proc
}

// Wait parks the calling process until a Signal or Broadcast wakes it.
// Wakeups are FIFO and never spurious, but as with any condition variable
// the guarded predicate should be re-checked in a loop: another process may
// run between the wakeup being scheduled and the waiter resuming.
func (c *Cond) Wait(p *Proc) {
	p.parkedAt = c.Name
	c.waiters = append(c.waiters, p)
	p.park()
	p.parkedAt = ""
}

// Signal wakes the longest-waiting process, if any. The wakeup is scheduled
// at the current virtual time; it is safe to call from engine callbacks or
// from other processes. When the woken process would be the very next event
// anyway — run queue drained, no same-time heap events, no handoff already
// pending — it skips the queues entirely and is parked in the engine's
// handoff slot, which every scheduler loop consumes first. Any event pushed
// after this Signal carries a larger seq and would run after the wakeup
// regardless, so the fast path preserves the queue-based order.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	e := p.eng
	if e.handoff == nil && e.runqHead == len(e.runq) && !e.sameTimeQueued() {
		e.handoff = p
		return
	}
	e.schedule(p, e.now)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		p.eng.schedule(p, p.eng.now)
	}
	c.waiters = c.waiters[:0]
}

// Waiting reports the number of processes parked on c.
func (c *Cond) Waiting() int { return len(c.waiters) }
