package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// mix runs n processes through steps seeded random operations each —
// Advance, Yield, Cond Signal/Wait, AdvanceWhile, spawning a child,
// finishing and Detach — and calls woke(id) after every
// operation a process comes back from. Every draw is from the engine's one
// stream, so a wake-up that moves changes who draws what from then on.
//
// A process waits only while another one is still running to wake it, and
// every one that leaves broadcasts, so the mix cannot deadlock.
func mix(e *Engine, n, steps int, woke func(id int)) {
	var c Cond
	r := e.Rand()
	active, ids := 0, 0
	var spawn func(steps int)
	spawn = func(steps int) {
		id := ids
		ids++
		active++
		e.Go("mix", func(p *Proc) {
			leave := func() { active--; c.Broadcast() }
			for i := 0; i < steps; i++ {
				switch k := r.Intn(16); {
				case k < 6:
					p.Advance(Time(1 + r.Intn(50)))
				case k < 8:
					p.Yield()
				case k < 10:
					c.Signal()
				case k < 12:
					if c.Waiting() < active-1 {
						c.Wait(p)
					}
				case k < 14:
					left := r.Intn(4)
					p.AdvanceWhile(Time(1+r.Intn(20)), func() bool { left--; return left >= 0 })
				case k == 14:
					spawn(steps / 4)
				case r.Intn(32) == 0:
					leave()
					p.Detach("mix")
				}
				woke(id)
			}
			leave()
		})
	}
	for i := 0; i < n; i++ {
		spawn(steps)
	}
}

// TestWakeOrderPinned pins which process runs when: FNV-1a over the
// (now, process) sequence of a seeded random mix and the number of events it
// took. The constants were computed before a hand-off became a nested
// resume (PR 20); how control reaches a process must never change them.
func TestWakeOrderPinned(t *testing.T) {
	e := NewEngine(20)
	h := fnv.New64a()
	wakes := 0
	mix(e, 8, 400, func(id int) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(e.Now()))
		binary.LittleEndian.PutUint64(b[8:], uint64(id))
		h.Write(b[:])
		wakes++
	})
	e.RunAll()
	e.Release()
	const wantHash, wantWakes, wantEvents = 0x18c766a461c3f9ea, 41500, 41428
	if got := h.Sum64(); got != wantHash || wakes != wantWakes || e.EventsRun != wantEvents {
		t.Fatalf("wake sequence hash %#x over %d wakes, %d events; pinned %#x, %d, %d",
			got, wakes, e.EventsRun, uint64(wantHash), wantWakes, wantEvents)
	}
}
