package sim

import (
	"container/heap"
	"testing"
)

// refEvent / refHeap reimplement the kernel's original container/heap
// scheduler: boxed events ordered by (at, seq). The inline 4-ary heap and
// the same-time run queue must reproduce this execution order exactly —
// byte-identical goldens depend on it.
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

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, &refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) Run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		ev.fn()
	}
}

// scheduler is the common surface the cascade generator drives.
type scheduler interface {
	At(t Time, fn func())
}

// cascade generates a randomized event cascade on s and records execution
// order in *order: each event appends its id, then reschedules 0-2 children
// at now+delta, where delta is often 0 (the run-queue path in the real
// engine) and frequently collides with other timestamps (exercising the
// (at, seq) FIFO tie-break).
type cascade struct {
	s      scheduler
	now    func() Time
	rng    *Rand
	nextID int
	budget int
	order  []int
}

func (c *cascade) fire(self int) func() {
	return func() {
		c.order = append(c.order, self)
		kids := c.rng.Intn(3)
		for k := 0; k < kids && c.budget > 0; k++ {
			c.budget--
			c.nextID++
			var d Time
			switch c.rng.Intn(4) {
			case 0: // same time as the running event
				d = 0
			case 1: // collision-prone small offsets
				d = Time(c.rng.Intn(3))
			default:
				d = Time(c.rng.Intn(50))
			}
			c.s.At(c.now()+d, c.fire(c.nextID))
		}
	}
}

func (c *cascade) seedRoots() {
	for i := 0; i < 40; i++ {
		c.nextID++
		t := Time(c.rng.Intn(20))
		if i%5 == 0 {
			t = 0 // burst of same-time roots
		}
		c.s.At(t, c.fire(c.nextID))
	}
}

// TestEventOrderMatchesContainerHeap drives identical randomized cascades
// through the real engine and the container/heap reference and requires the
// exact same execution order, across many seeds.
func TestEventOrderMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		eng := NewEngine(1)
		got := &cascade{s: eng, now: eng.Now, rng: NewRand(seed * 977), budget: 3000}
		got.seedRoots()
		if err := eng.Run(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ref := &refEngine{}
		want := &cascade{s: ref, now: func() Time { return ref.now }, rng: NewRand(seed * 977), budget: 3000}
		want.seedRoots()
		ref.Run()

		if len(got.order) != len(want.order) {
			t.Fatalf("seed %d: ran %d events, reference ran %d", seed, len(got.order), len(want.order))
		}
		for i := range got.order {
			if got.order[i] != want.order[i] {
				t.Fatalf("seed %d: divergence at event %d: engine ran id %d, reference id %d",
					seed, i, got.order[i], want.order[i])
			}
		}
	}
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
