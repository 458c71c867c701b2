package sim

import (
	"container/heap"
	"fmt"
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
// near-queue slot holds). A child's time is a when. A run stops at a
// decoded horizon, gains a few roots and resumes. Both schedulers read the
// same bytes in the same order only while they run the same events, so the
// first event out of order changes every draw after it. An exhausted string
// reads as zeros: no more children.
type cascade struct {
	s      scheduler
	in     coder
	nextID int
	budget int
	order  []int
}

func (c *cascade) intn(n int) int {
	var v int
	c.in.int(&v, 0, n)
	return v
}

func (c *cascade) when() Time {
	var w when
	w.code(&c.in)
	return w.at(c.s.Now())
}

// coder reads values from a byte string, or with enc set appends them to
// it, so that one walk over a structure is both its decoder and its
// encoder (FuzzEngine's programs are written that way).
type coder struct {
	buf []byte
	enc bool
}

// int codes *v in [lo, hi): *v-lo in one byte when the range is at most 256
// wide, else in two, little-endian. Decoding reduces modulo the range; an
// exhausted string reads as zeros.
func (c *coder) int(v *int, lo, hi int) {
	n, x, width := hi-lo, 0, 1
	if n > 256 {
		width = 2
	}
	if c.enc && (*v < lo || *v >= hi) {
		panic(fmt.Sprintf("coder: %d outside [%d, %d)", *v, lo, hi))
	}
	for k := range width {
		if c.enc {
			c.buf = append(c.buf, byte((*v-lo)>>(8*k)))
		} else if len(c.buf) > 0 {
			x, c.buf = x|int(c.buf[0])<<(8*k), c.buf[1:]
		}
	}
	if !c.enc {
		*v = lo + x%n
	}
}

// when is a time drawn from classes aimed at every queue path, relative to
// the clock it is evaluated against: the current instant (the run queue),
// collision-prone small offsets (the (at, seq) FIFO tie-break), slot
// boundaries, both sides of the span edge (from now and from the slot
// start), and delays up to three spans, which the clock later jumps
// across, wrapping the wheel.
type when struct{ class, v int }

func (w *when) code(c *coder) {
	c.int(&w.class, 0, 10)
	if n := [10]int{2: 3, 3: 50, 4: 50, 5: nearSlots + 2, 6: 5, 7: 5, 8: 3 * nearSpan, 9: 3 * nearSpan}[w.class]; n > 0 {
		c.int(&w.v, 0, n)
	}
}

func (w when) at(now Time) Time {
	base, v := now&^(1<<slotShift-1), Time(w.v)
	switch w.class {
	case 5: // a slot boundary, behind now included
		return base + v<<slotShift
	case 6: // the span edge, counted from now
		return now + nearSpan - 2 + v
	case 7: // the span edge, counted from the slot start
		return base + nearSpan - 2 + v
	}
	return now + v // now, a small offset, or up to three spans ahead
}

func (w when) String() string {
	if w.class < 5 || w.class > 7 {
		return fmt.Sprintf("+%d", w.v)
	}
	return fmt.Sprintf([]string{"slot%d", "now+span-2+%d", "slot0+span-2+%d"}[w.class-5], w.v)
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
		got := &cascade{s: eng, in: coder{buf: prog}, budget: 1000}
		if err := got.run(); err != nil {
			t.Fatal(err)
		}
		want := &cascade{s: &refEngine{}, in: coder{buf: prog}, budget: 1000}
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
