// Package ring provides a growable FIFO ring buffer with monotone push/pop
// counters. It replaces the shift-style slice queues (q = q[1:]) on the
// packet data path: pops are O(1), popped slots are zeroed so long-lived
// queues never pin dead packets for the GC, and the backing array is reused
// forever — a warmed ring performs no allocations in steady state.
package ring

// Ring is a FIFO queue over a power-of-two circular buffer. The zero value
// is an empty ring ready for use.
//
// Pushed and Popped expose monotone operation counters. They give callers a
// free "ticket" mechanism: remember t := r.Pushed() after pushing an element
// and the element has been popped exactly when r.Popped() >= t — which is
// how the AM layer tracks injection of queued operations without a pointer
// or a per-operation flag.
type Ring[T any] struct {
	buf  []T
	head uint64 // total elements ever popped
	tail uint64 // total elements ever pushed
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return int(r.tail - r.head) }

// Pushed returns the monotone count of elements ever pushed.
func (r *Ring[T]) Pushed() uint64 { return r.tail }

// Popped returns the monotone count of elements ever popped.
func (r *Ring[T]) Popped() uint64 { return r.head }

func (r *Ring[T]) mask() uint64 { return uint64(len(r.buf) - 1) }

// grow doubles the buffer, keeping every element at the slot its monotone
// index selects (indices are never rebased, so outstanding tickets and the
// head/tail counters stay valid).
func (r *Ring[T]) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 8
	}
	nb := make([]T, n)
	nm := uint64(n - 1)
	for i := r.head; i < r.tail; i++ {
		nb[i&nm] = r.buf[i&r.mask()]
	}
	r.buf = nb
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) { *r.PushSlot() = v }

// PushSlot appends a zero element at the tail and returns a pointer to it,
// for the caller to build in place (valid until the next Push, PushSlot,
// Pop, Drop or Take): free slots are always zero, as those and Clear leave
// them.
func (r *Ring[T]) PushSlot() *T {
	if int(r.tail-r.head) == len(r.buf) {
		r.grow()
	}
	p := &r.buf[r.tail&r.mask()]
	r.tail++
	return p
}

// Pop removes and returns the head element, zeroing its slot. It panics on
// an empty ring. It is Peek and Drop, written out so that it stays within
// the compiler's inlining budget, which a call to Drop exceeds.
func (r *Ring[T]) Pop() T {
	p := r.Peek()
	v := *p
	var zero T
	*p = zero
	r.head++
	return v
}

// Drop removes the head element without returning it, zeroing its slot. It
// panics on an empty ring.
func (r *Ring[T]) Drop() {
	var zero T
	*r.Peek() = zero
	r.head++
}

// Take removes and returns the oldest element ok accepts, or reports false
// when ok accepts none. Only the elements ahead of it move, one slot toward
// the tail, so order is kept and a take at the head costs what Pop does. A
// take counts in Popped as a pop does: a ring whose Pushed tickets are read
// takes at its head only.
func (r *Ring[T]) Take(ok func(*T) bool) (T, bool) {
	for i := r.head; i < r.tail; i++ {
		v := &r.buf[i&r.mask()]
		if !ok(v) {
			continue
		}
		taken := *v
		for ; i > r.head; i-- {
			r.buf[i&r.mask()] = r.buf[(i-1)&r.mask()]
		}
		r.Drop()
		return taken, true
	}
	var zero T
	return zero, false
}

// Peek returns a pointer to the head element without removing it (valid
// until the next change to the ring). It panics on an empty ring.
func (r *Ring[T]) Peek() *T {
	if r.head == r.tail {
		panic("ring: empty")
	}
	return &r.buf[r.head&r.mask()]
}

// At returns a pointer to the i-th queued element (0 = head). It panics when
// i is out of range.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.Len() {
		panic("ring: At index out of range")
	}
	return &r.buf[(r.head+uint64(i))&r.mask()]
}

// Clear removes every element, zeroing the occupied slots. The monotone
// counters advance as if each element had been popped.
func (r *Ring[T]) Clear() {
	var zero T
	for i := r.head; i < r.tail; i++ {
		r.buf[i&r.mask()] = zero
	}
	r.head = r.tail
}
