package sim

// Proc is a simulated process: a sequential program whose execution is
// interleaved with others only at explicit virtual-time operations
// (Advance, Wait, ...). A Proc must only be used from its own goroutine.
type Proc struct {
	eng      *Engine
	name     string
	daemon   bool
	resume   chan struct{}
	finished bool
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
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Detach permanently parks the calling process and never returns. The
// process is reclassified as a daemon — it no longer counts toward the
// engine's live-workload total, so the run can complete (and deadlock
// detection stays meaningful) while the goroutine stays parked forever.
// It models a fail-stop node: the program simply ceases, mid-call, with
// reason recorded for diagnostics.
func (p *Proc) Detach(reason string) {
	if !p.daemon {
		p.daemon = true
		p.eng.live--
	}
	p.parkedAt = reason
	// No wakeup is ever scheduled: park runs the scheduler loop until the
	// baton moves elsewhere, then blocks on the resume channel for good.
	p.park()
	panic("sim: detached process resumed")
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// park deschedules p: the goroutine keeps the baton and runs the scheduler
// loop itself, returning as soon as p's next wakeup fires (possibly without
// ever switching goroutines — see Engine.exec).
func (p *Proc) park() {
	p.eng.exec(p)
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
// in whichever goroutine is executing the scheduler loop, and while step
// returns true re-arms itself at now+d with exactly the key the process's
// own next Advance(d) would have pushed (same at, pushAt = now, next local
// seq). On the first false the process wakes as if from a plain Advance(d).
// Event times, ordering keys and EventsRun are therefore identical to the
// loop
//
//	for { p.Advance(d); if !step() { break } }
//
// provided step does only what the process itself would have done at that
// instant (scheduling events included) and never blocks: it has no process
// to park. A step that returns false must leave no trace — the woken process
// redoes that instant's work through its ordinary code.
func (p *Proc) AdvanceWhile(d Time, step func() bool) {
	if d < 0 {
		d = 0
	}
	p.step, p.stepD = step, d
	p.eng.push(p.eng.now+d, p.stepFn)
	p.park()
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
// regardless, so the fast path preserves the exact serial order.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	e := p.eng
	if e.handoff == nil && e.runqHead == len(e.runq) &&
		(len(e.events) == 0 || e.events[0].at > e.now) {
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
