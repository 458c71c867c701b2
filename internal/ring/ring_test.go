package ring

import (
	"bytes"
	"slices"
	"testing"
)

func TestFIFOOrderAcrossGrowth(t *testing.T) {
	var r Ring[int]
	next := 0
	for pushed := 0; pushed < 1000; {
		for i := 0; i < 7 && pushed < 1000; i++ {
			r.Push(pushed)
			pushed++
		}
		for i := 0; i < 3 && r.Len() > 0; i++ {
			if got := r.Pop(); got != next {
				t.Fatalf("popped %d, want %d", got, next)
			}
			next++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != next {
			t.Fatalf("popped %d, want %d", got, next)
		}
		next++
	}
	if next != 1000 {
		t.Fatalf("drained %d elements, want 1000", next)
	}
}

func TestTicketCounters(t *testing.T) {
	var r Ring[string]
	r.Push("a")
	ta := r.Pushed()
	r.Push("b")
	tb := r.Pushed()
	if r.Popped() >= ta {
		t.Fatal("ticket a reported popped before any pop")
	}
	r.Pop()
	if r.Popped() < ta {
		t.Fatal("ticket a not popped after one pop")
	}
	if r.Popped() >= tb {
		t.Fatal("ticket b reported popped early")
	}
	r.Pop()
	if r.Popped() < tb {
		t.Fatal("ticket b not popped after draining")
	}
}

func TestPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	r.Push(v)
	r.Pop()
	// The popped slot must not retain the pointer.
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatal("popped slot retains its pointer")
		}
	}
}

func TestPeekAtClear(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 5; i++ {
		r.Push(i * 10)
	}
	if *r.Peek() != 0 {
		t.Fatalf("Peek = %d, want 0", *r.Peek())
	}
	for i := 0; i < 5; i++ {
		if *r.At(i) != i*10 {
			t.Fatalf("At(%d) = %d, want %d", i, *r.At(i), i*10)
		}
	}
	*r.At(2) = 99
	r.Pop()
	r.Pop()
	if *r.Peek() != 99 {
		t.Fatalf("mutation through At not visible: head = %d", *r.Peek())
	}
	r.Clear()
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Clear", r.Len())
	}
	for i := range r.buf {
		if r.buf[i] != 0 {
			t.Fatal("Clear left a nonzero slot")
		}
	}
}

func TestEmptyOpsPanic(t *testing.T) {
	for name, fn := range map[string]func(*Ring[int]){
		"Pop":  func(r *Ring[int]) { r.Pop() },
		"Drop": func(r *Ring[int]) { r.Drop() },
		"Peek": func(r *Ring[int]) { r.Peek() },
		"At":   func(r *Ring[int]) { r.At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty ring did not panic", name)
				}
			}()
			var r Ring[int]
			fn(&r)
		}()
	}
}

func TestSteadyStateNoAllocs(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 64; i++ {
		r.Push(i)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			r.Push(i)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed ring allocated %.1f times per cycle, want 0", allocs)
	}
}

// FuzzRing drives a ring and a slice model with the same program — one byte
// per step, the low bits choosing push, pop, peek, indexed read, clear,
// drop or take — and requires them to agree on every result, on the
// length, and on the monotone counters, and every free slot to be zero. A
// take removes the oldest element its predicate accepts (value mod 4 equal
// to the byte's high bits mod 4) and keeps the others in order. An
// operation the ring would panic on (pop, peek or drop of an empty ring) is
// one the model skips too.
func FuzzRing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 1})                // fill, drain
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})    // head chases tail around one slot
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1}, 40))    // grows twice with a moving head
	f.Add(bytes.Repeat([]byte{7, 7, 0, 1, 4}, 30)) // PushSlot, also after Clear
	f.Add(bytes.Repeat([]byte{0, 4, 2, 3, 1}, 30)) // clear between pushes
	f.Add(append(bytes.Repeat([]byte{0}, 9), 1, 3, 2, 1, 4, 0, 3))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 6, 13, 5, 20, 27}, 20)) // takes at and behind the head, drops, across growth
	f.Add(append(bytes.Repeat([]byte{0, 7}, 12), 1, 1, 1, 6, 13, 20, 27, 6, 13, 20, 27, 6))
	f.Fuzz(func(t *testing.T, prog []byte) {
		var r Ring[int]
		var model []int
		var pushed, popped uint64
		for step, op := range prog {
			switch op % 7 {
			case 0:
				if op/7%2 == 0 {
					r.Push(step + 1)
				} else if s := r.PushSlot(); *s != 0 {
					t.Fatalf("step %d: PushSlot returned a slot holding %d, want a zero one", step, *s)
				} else {
					*s = step + 2
				}
				model = append(model, step+1+int(op/7%2))
				pushed++
			case 1, 5:
				if len(model) == 0 {
					continue
				}
				if op%7 == 5 {
					r.Drop()
				} else if got := r.Pop(); got != model[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
				}
				model = model[1:]
				popped++
			case 2:
				if len(model) == 0 {
					continue
				}
				if got := *r.Peek(); got != model[0] {
					t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
				}
			case 3:
				if len(model) == 0 {
					continue
				}
				i := int(op) / 7 % len(model)
				if got := *r.At(i); got != model[i] {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, model[i])
				}
			case 4:
				r.Clear()
				popped += uint64(len(model))
				model = model[:0]
			case 6:
				want := int(op) / 7 % 4
				got, ok := r.Take(func(v *int) bool { return *v%4 == want })
				i := slices.IndexFunc(model, func(v int) bool { return v%4 == want })
				if ok != (i >= 0) || ok && got != model[i] {
					t.Fatalf("step %d: Take(mod 4 = %d) = %d, %v, want the oldest such of %v", step, want, got, ok, model)
				}
				if ok {
					model = slices.Delete(model, i, i+1)
					popped++
				}
			}
			if r.Len() != len(model) || r.Pushed() != pushed || r.Popped() != popped {
				t.Fatalf("step %d: len %d pushed %d popped %d, want %d %d %d",
					step, r.Len(), r.Pushed(), r.Popped(), len(model), pushed, popped)
			}
			for i, v := range model {
				if got := *r.At(i); got != v {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, v)
				}
			}
			for i := r.tail; i < r.head+uint64(len(r.buf)); i++ {
				if v := r.buf[i&r.mask()]; v != 0 {
					t.Fatalf("step %d: free slot %d holds %d", step, i&r.mask(), v)
				}
			}
		}
	})
}
