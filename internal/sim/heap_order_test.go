package sim

import (
	"container/heap"
	"testing"
)

// refEvent / refHeap reimplement the kernel's original container/heap
// scheduler: boxed events ordered by (at, seq). The near queue, the inline
// 4-ary heap and the same-time run queue must reproduce this execution order
// exactly — byte-identical goldens depend on it.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refEngine is the trivially-correct scheduler the real engine is checked
// against.
type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, &refEvent{at: t, seq: e.seq, fn: fn})
}

// Run pops in (at, seq) order; a horizon stop leaves the clock at the
// horizon, as Engine.Run does.
func (e *refEngine) Run(horizon Time) error {
	for len(e.events) > 0 {
		if horizon > 0 && e.events[0].at > horizon {
			e.now = horizon
			return nil
		}
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		ev.fn()
	}
	return nil
}

// scheduler is the common surface the cascade drives.
type scheduler interface {
	At(t Time, fn func())
	Now() Time
	Run(horizon Time) error
}

// cascade decodes a byte string into a randomized event cascade on s and
// records execution order: each event appends its id, then schedules 0-2
// children, or now and then a burst of six at one instant (more than a
// near-queue slot holds). A child's time is drawn from classes aimed at every
// queue path: the current instant (the run queue), collision-prone small
// offsets (the (at, seq) FIFO tie-break), slot boundaries, both sides of the
// span edge (from now and from the slot start), and delays up to three spans,
// which the clock later jumps across, wrapping the wheel. A run stops at a
// decoded horizon, gains a few roots and resumes. Both schedulers read the
// same bytes in the same order only while they run the same events, so the
// first event out of order changes every draw after it. An exhausted string
// reads as zeros: no more children.
type cascade struct {
	s      scheduler
	prog   []byte
	nextID int
	budget int
	order  []int
}

// intn decodes a value in [0, n): one byte for n <= 256, else two.
func (c *cascade) intn(n int) int {
	v := 0
	for k := 0; k < 2 && len(c.prog) > 0; k++ {
		v |= int(c.prog[0]) << (8 * k)
		c.prog = c.prog[1:]
		if n <= 256 {
			break
		}
	}
	return v % n
}

func (c *cascade) when() Time {
	now := c.s.Now()
	base := now &^ (1<<slotShift - 1)
	switch c.intn(10) {
	case 0, 1:
		return now
	case 2:
		return now + Time(c.intn(3))
	case 3, 4:
		return now + Time(c.intn(50))
	case 5: // a slot boundary, behind now included
		return base + 1<<slotShift*Time(c.intn(nearSlots+2))
	case 6: // the span edge, counted from now
		return now + nearSpan - 2 + Time(c.intn(5))
	case 7: // the span edge, counted from the slot start
		return base + nearSpan - 2 + Time(c.intn(5))
	default: // up to three spans ahead
		return now + Time(c.intn(3*nearSpan))
	}
}

func (c *cascade) spawn(at Time) {
	c.nextID++
	c.s.At(at, c.fire(c.nextID))
}

func (c *cascade) fire(self int) func() {
	return func() {
		c.order = append(c.order, self)
		kids, burst := c.intn(3), c.intn(8) == 7
		at := c.when()
		if burst {
			kids = 6
		}
		for k := 0; k < kids && c.budget > 0; k++ {
			c.budget--
			if !burst && k > 0 {
				at = c.when()
			}
			c.spawn(at)
		}
	}
}

// run plays the whole program: 40 roots (a burst at time 0, most within
// 20 ns, some up to four spans out), a Run to the decoded horizon, five more
// roots, and a Run to the end.
func (c *cascade) run() error {
	horizon := Time(c.intn(4 * nearSpan))
	for i := 0; i < 40; i++ {
		t := Time(c.intn(20))
		switch {
		case i%5 == 0:
			t = 0
		case i%8 == 7:
			t = Time(c.intn(4 * nearSpan))
		}
		c.spawn(t)
	}
	if err := c.s.Run(horizon); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		c.spawn(c.when())
	}
	return c.s.Run(0)
}

// FuzzEventOrder drives one decoded cascade through the real engine and the
// container/heap reference and requires the exact same execution order. Its
// seeds are 25 pseudo-random programs.
func FuzzEventOrder(f *testing.F) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := NewRand(seed * 977)
		prog := make([]byte, 4<<10)
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		eng := NewEngine(1)
		got := &cascade{s: eng, prog: prog, budget: 1000}
		if err := got.run(); err != nil {
			t.Fatal(err)
		}
		want := &cascade{s: &refEngine{}, prog: prog, budget: 1000}
		want.run()
		for i := range min(len(got.order), len(want.order)) {
			if got.order[i] != want.order[i] {
				t.Fatalf("divergence at event %d: engine ran id %d, reference id %d",
					i, got.order[i], want.order[i])
			}
		}
		if len(got.order) != len(want.order) {
			t.Fatalf("ran %d events, reference ran %d", len(got.order), len(want.order))
		}
	})
}

// refServer is Server as it was before completions queued outside the heap:
// every job's completion is pushed at Submit. It is the reference the
// backlogged Server must reproduce event for event.
type refServer struct {
	eng       *Engine
	busyUntil Time
}

func (s *refServer) Submit(service Time, done func()) Time {
	if service < 0 {
		service = 0
	}
	start := s.eng.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + service
	if done != nil {
		s.eng.At(s.busyUntil, done)
	}
	return s.busyUntil
}

type submitter interface {
	Submit(service Time, done func()) Time
}

type step struct {
	now Time
	id  int
}

// serverMix drives six servers wired like two adapters and a switch port —
// stage k's done submits to stage k+1; chains 0→1 and 2→3 each cross an
// AfterKeyed hop (one lane per chain) into the shared server 4, then 5, whose
// done signals a consumer — from two processes (Advance, AdvanceWhile) and a
// re-arming After timer, all drawing from one seeded stream, so the first
// event that pops out of order changes every draw after it. Service times
// come from a small set, zero included, so completions tie across servers
// and with the timers; servers 1 and 3 never serve in zero time, as a link
// never does, which keeps the hops' keys unique. The run pauses at a horizon
// (paused sees the servers then) and is resumed to the end.
func serverMix(t *testing.T, seed uint64, mk func(e *Engine) submitter, paused func(srv []submitter)) ([]step, int64) {
	e := NewEngine(1)
	r := NewRand(seed)
	srv := make([]submitter, 6)
	for i := range srv {
		srv[i] = mk(e)
	}
	services := []Time{0, 3, 3, 7, 7, 7, 12}
	svc := func() Time { return services[r.Intn(len(services))] }
	var log []step
	mark := func(id int) { log = append(log, step{e.Now(), id}) }
	arrived := &Cond{Name: "arrived"}

	var stage func(k, job int) func()
	stage = func(k, job int) func() {
		return func() {
			mark(k*100000 + job)
			switch k {
			case 1, 3:
				e.AfterKeyed(10, uint64(k/2), 2, func() {
					mark(600000 + job)
					srv[4].Submit(svc(), stage(4, job))
				})
			case 5:
				arrived.Signal()
			default:
				d := svc()
				if k == 0 || k == 2 {
					d++ // into server 1 or 3
				}
				srv[k+1].Submit(d, stage(k+1, job))
			}
		}
	}
	jobs := 0
	inject := func(chain int) {
		for n := 1 + r.Intn(6); n > 0; n-- {
			jobs++
			if r.Intn(8) == 0 {
				srv[2*chain].Submit(svc(), nil) // occupies the server, no event
				continue
			}
			srv[2*chain].Submit(svc(), stage(2*chain, jobs))
		}
	}

	e.Go("advance", func(p *Proc) {
		for i := 0; i < 60; i++ {
			inject(0)
			p.Advance(Time(r.Intn(30)))
			mark(700000)
		}
	})
	e.Go("advancewhile", func(p *Proc) {
		for i := 0; i < 60; i++ {
			inject(1)
			left := r.Intn(3)
			p.AdvanceWhile(Time(1+r.Intn(12)), func() bool { left--; return left >= 0 })
			mark(700001)
		}
	})
	e.GoDaemon("consumer", func(p *Proc) {
		for {
			arrived.Wait(p)
			mark(700002)
		}
	})
	timers := 40
	var timer func()
	timer = func() {
		mark(700003)
		inject(r.Intn(2))
		if timers--; timers > 0 {
			e.After(Time(r.Intn(40)), timer)
		}
	}
	e.After(5, timer)

	if err := e.Run(400); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !e.Pending() {
		t.Fatalf("seed %d: run finished before the pause at %v", seed, e.Now())
	}
	paused(srv)
	if err := e.Run(0); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if e.Pending() {
		t.Fatalf("seed %d: events pending after the run", seed)
	}
	e.Release()
	return log, e.EventsRun
}

// TestServerOrderMatchesSubmitTimePush: keeping queued completions out of
// the heap must not move a single event. The same seeded mix runs on Server
// and on refServer, and the (now, id) execution sequences and event counts
// must be equal.
func TestServerOrderMatchesSubmitTimePush(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		backlogged := 0
		got, gotEvents := serverMix(t, seed*977,
			func(e *Engine) submitter { return NewServer(e) },
			func(srv []submitter) {
				for _, s := range srv {
					backlogged += s.(*Server).backlog.Len()
				}
			})
		if backlogged == 0 {
			t.Fatalf("seed %d: no server had a backlog at the pause; the mix does not exercise it", seed)
		}
		want, wantEvents := serverMix(t, seed*977,
			func(e *Engine) submitter { return &refServer{eng: e} },
			func([]submitter) {})
		if len(got) != len(want) || gotEvents != wantEvents {
			t.Fatalf("seed %d: %d steps in %d events, reference %d in %d",
				seed, len(got), gotEvents, len(want), wantEvents)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: divergence at step %d: server ran %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}
