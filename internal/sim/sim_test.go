package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestAdvanceMovesClock(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Go("p", func(p *Proc) {
		p.Advance(1500)
		at = p.Now()
	})
	e.RunAll()
	if at != 1500 {
		t.Fatalf("proc saw t=%v, want 1500", at)
	}
	if e.Now() != 1500 {
		t.Fatalf("engine at t=%v, want 1500", e.Now())
	}
}

func TestEventOrderingSameTimeIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		for _, n := range []string{"a", "b", "c"} {
			n := n
			e.Go(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Advance(Time(10 * (len(n) + i))) // same durations across runs
					log = append(log, n)
				}
			})
		}
		e.RunAll()
		return log
	}
	first := strings.Join(run(), ",")
	for i := 0; i < 5; i++ {
		if got := strings.Join(run(), ","); got != first {
			t.Fatalf("nondeterministic interleaving: %q vs %q", got, first)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "q"}
	var woke []string
	for _, n := range []string{"w1", "w2", "w3"} {
		n := n
		e.Go(n, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, n)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Advance(100)
		c.Signal()
		p.Advance(100)
		c.Signal()
		c.Signal()
	})
	e.RunAll()
	if strings.Join(woke, ",") != "w1,w2,w3" {
		t.Fatalf("wake order %v, want FIFO", woke)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "gate"}
	n := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Advance(10)
		c.Broadcast()
	})
	e.RunAll()
	if n != 5 {
		t.Fatalf("broadcast woke %d of 5", n)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "never"}
	e.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run(0)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "never") {
		t.Fatalf("diagnosis missing proc/cond name: %v", err)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "work"}
	e.GoDaemon("hw", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	e.Go("app", func(p *Proc) { p.Advance(10) })
	if err := e.Run(0); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

func TestServerFIFOAndOccupancy(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e)
	var done []Time
	e.Go("g", func(p *Proc) {
		s.Submit(100, func() { done = append(done, e.Now()) })
		s.Submit(50, func() { done = append(done, e.Now()) })
		p.Advance(30)
		s.Submit(10, func() { done = append(done, e.Now()) })
	})
	e.RunAll()
	want := []Time{100, 150, 160}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v (all: %v)", i, done[i], want[i], done)
		}
	}
	if s.Busy != 160 {
		t.Fatalf("busy=%v, want 160", s.Busy)
	}
}

// TestServerBacklogStaysOutOfHeap is the gate on what the event queue holds,
// near slots and far heap together: one completion per busy server, however
// many jobs are queued behind it (pushing each at Submit, as Server once
// did, reads 3999 here).
func TestServerBacklogStaysOutOfHeap(t *testing.T) {
	e := NewEngine(1)
	const servers, jobs = 4, 1000
	var srv [servers]*Server
	for i := range srv {
		srv[i] = NewServer(e)
	}
	peak, completed := 0, 0
	var done [servers]func()
	for k := range done {
		done[k] = func() {
			completed++
			if n := queued(e); n > peak {
				peak = n
			}
			if k+1 < servers {
				srv[k+1].Submit(Time(1+k), done[k+1])
			}
		}
	}
	for k, s := range srv {
		for j := 0; j < jobs; j++ {
			s.Submit(Time(1+k), done[k])
		}
	}
	e.RunAll()
	if want := jobs * servers * (servers + 1) / 2; completed != want {
		t.Fatalf("%d completions, want %d", completed, want)
	}
	if peak > servers+1 {
		t.Fatalf("event queue held %d entries at a completion, want at most %d (one per busy server)", peak, servers+1)
	}
}

// queued counts the events in e's queue, near slots and far heap.
func queued(e *Engine) int {
	n := len(e.events)
	for _, k := range e.nearN {
		n += int(k)
	}
	return n
}

func TestRunHorizonStopsEarly(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(1000, func() { fired = true })
	if err := e.Run(500); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 500 {
		t.Fatalf("clock at %v, want horizon 500", e.Now())
	}

	// A horizon stop is a pause: a process it leaves parked — on its own
	// wake-up or on a Cond — is resumed by the next Run exactly once, at the
	// time it asked for.
	e = NewEngine(1)
	c := &Cond{Name: "gate"}
	var woke []string
	e.Go("sleeper", func(p *Proc) {
		p.Advance(1000)
		woke = append(woke, fmt.Sprintf("sleeper@%d", p.Now()))
		c.Signal()
	})
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		woke = append(woke, fmt.Sprintf("waiter@%d", p.Now()))
	})
	for _, h := range []Time{400, 800} {
		if err := e.Run(h); err != nil {
			t.Fatal(err)
		}
		if len(woke) != 0 || e.Live() != 2 || !e.Pending() || e.running != nil {
			t.Fatalf("paused at %v: woke=%v live=%d pending=%v running=%v", h, woke, e.Live(), e.Pending(), e.running)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(woke, ","); got != "sleeper@1000,waiter@1000" {
		t.Fatalf("after resuming: %q, want each process woken once at t=1000", got)
	}
	if e.EventsRun != 4 { // two first dispatches, the sleeper's wake-up, the Signal's handoff
		t.Fatalf("EventsRun = %d, want 4", e.EventsRun)
	}

	// The same with the pause taken while four processes are on the chain,
	// each suspended in its resume of the next: all of them come off it, and
	// the next Run resumes each once per wake-up.
	e = NewEngine(1)
	woke = nil
	var depths []int
	for i := 1; i <= 4; i++ {
		e.Go(fmt.Sprint("p", i), func(p *Proc) {
			for k := 0; k < 2; k++ {
				p.Advance(500 + Time(i))
				woke = append(woke, fmt.Sprintf("%s@%d", p.name, p.Now()))
			}
		})
	}
	for _, at := range []Time{300, 900} {
		e.At(at, func() { depths = append(depths, chainDepth(e)) })
	}
	for _, h := range []Time{400, 950} {
		if err := e.Run(h); err != nil {
			t.Fatal(err)
		}
		if e.Live() != 4 || !e.Pending() || e.running != nil || chainDepth(e) != 0 {
			t.Fatalf("paused at %v: live=%d pending=%v running=%v chain=%d", h, e.Live(), e.Pending(), e.running, chainDepth(e))
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(woke, ","); got != "p1@501,p2@502,p3@503,p4@504,p1@1002,p2@1004,p3@1006,p4@1008" {
		t.Fatalf("after two pauses: %q, want each process woken once per Advance", got)
	}
	if fmt.Sprint(depths) != "[3 3]" {
		t.Fatalf("%v ancestors suspended when the horizons were near, want 3 both times", depths)
	}
}

// chainDepth counts the processes suspended in a resume call: the ancestors
// of whichever is in control.
func chainDepth(e *Engine) (n int) {
	for _, p := range e.procs {
		if p.inResume {
			n++
		}
	}
	return n
}

// TestProcPanicReachesRun: a panic inside a simulated process — here one
// resumed by a process that was itself resumed by another — comes out of
// Run, in the goroutine that called it, with its value intact, and leaves
// the engine naming no process as running and every goroutine collectable.
func TestProcPanicReachesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	e.Go("bystander", func(p *Proc) { p.Advance(100) })
	e.Go("bystander", func(p *Proc) { p.Advance(100) })
	e.Go("faulty", func(p *Proc) {
		p.Advance(10)
		if d := chainDepth(e); d != 2 {
			t.Errorf("faulty runs under %d ancestors, want 2", d)
		}
		panic("boom")
	})
	e.Go("parked", func(p *Proc) { p.Advance(100) }) // yielded back to faulty: off the chain
	r := func() (r any) {
		defer func() { r = recover() }()
		e.RunAll()
		return nil
	}()
	if r != "boom" {
		t.Fatalf("recovered %v, want the process's panic value", r)
	}
	if e.running != nil {
		t.Fatalf("engine left with %q running", e.running.name)
	}
	e.Release()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Release, %d before the run", n, base)
	}
}

// TestFinishAndDetachOnTheChain: a process that detaches goes on resuming
// others as their ancestor, one that finishes under it hands control back to
// it, and when the detached one's own ancestor wakes it comes off the chain
// for good; Release then unwinds it.
func TestFinishAndDetachOnTheChain(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	var log []string
	note := func(p *Proc, what string) {
		log = append(log, fmt.Sprintf("%s %s@%d/%d", p.name, what, p.Now(), chainDepth(e)))
	}
	e.Go("a", func(p *Proc) {
		p.Advance(10)
		note(p, "woke")
		p.Advance(100) // resumes d, which finishes under a
		note(p, "done")
	})
	e.Go("b", func(p *Proc) {
		defer note(p, "released")
		p.Detach("killed") // under a; resumes c
	})
	e.Go("c", func(p *Proc) {
		p.Advance(5) // resumes d, which yields back
		note(p, "done")
	})
	e.Go("d", func(p *Proc) {
		note(p, "started")
		p.Advance(20)
		note(p, "done")
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	e.Release()
	want := "d started@0/3,c done@5/2,a woke@10/0,d done@20/1,a done@110/0,b released@110/0"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("log (what@time/ancestors)\n got %s\nwant %s", got, want)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Release, %d before the run", n, base)
	}
}

// TestSignalHandoffOrder pins the Signal fast path's ordering contract:
// events pushed after a Signal still run after the woken process, exactly as
// the queue-based path ordered them.
func TestSignalHandoffOrder(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	c.Name = "order"
	var order []string
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		order = append(order, "waiter")
	})
	e.Go("signaler", func(p *Proc) {
		p.Yield() // let the waiter park
		c.Signal()
		e.At(e.Now(), func() { order = append(order, "callback") })
		p.Yield()
		order = append(order, "signaler")
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"waiter", "callback", "signaler"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestReleaseUnwindsParkedProcs: Release ends every unfinished process —
// parked on a Cond, detached, never started — by unwinding it, so deferred
// calls run, and a park attempted on the way out unwinds too instead of
// running the simulation. Finished processes are left alone.
func TestReleaseUnwindsParkedProcs(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "never"}
	var log []string
	e.Go("done", func(p *Proc) {
		defer func() { log = append(log, "done") }()
		p.Advance(5)
	})
	e.Go("waiter", func(p *Proc) {
		defer func() { log = append(log, "waiter") }()
		defer p.Advance(1)
		c.Wait(p)
		t.Error("waiter resumed")
	})
	e.Go("detached", func(p *Proc) {
		defer func() { log = append(log, "detached") }()
		p.Detach("killed")
	})
	if err := e.Run(0); err == nil || !strings.Contains(err.Error(), "waiter (waiting: never)") {
		t.Fatalf("Run = %v, want a deadlock naming the waiter", err)
	}
	e.Go("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	events := e.EventsRun
	e.Release()
	if got := strings.Join(log, ","); got != "done,waiter,detached" {
		t.Fatalf("deferred calls ran as %q, want done (at its end), then waiter and detached at Release", got)
	}
	if e.EventsRun != events {
		t.Fatalf("Release executed %d events", e.EventsRun-events)
	}
	e.Release() // idempotent
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine(1)
	sum := 0
	e.Go("outer", func(p *Proc) {
		p.Advance(10)
		e.Go("inner", func(q *Proc) {
			q.Advance(5)
			sum += int(q.Now())
		})
		p.Advance(100)
		sum += int(p.Now())
	})
	e.RunAll()
	if sum != 15+110 {
		t.Fatalf("sum=%d, want %d", sum, 15+110)
	}
}

func TestRandDeterministicAndUniform(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Crude uniformity check on Intn.
	r := NewRand(123)
	counts := make([]int, 8)
	for i := 0; i < 80000; i++ {
		counts[r.Intn(8)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("bucket %d has %d of 80000 (expected ~10000)", i, c)
		}
	}
}

func TestTimeUnits(t *testing.T) {
	tt := Time(1500)
	if tt.Microseconds() != 1.5 {
		t.Fatalf("1500ns = %vus, want 1.5", tt.Microseconds())
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Fatal("2e9 ns != 2 s")
	}
}

// stepOrder runs one process that wakes every d for n periods — through
// AdvanceWhile when inline is set, through a plain Advance loop otherwise —
// against everything that can tie with its wake-ups: callbacks scheduled
// before the run at the same instants, callbacks scheduled at run time from
// an earlier and from the same instant, a second process on the same period,
// and a Cond wake-up. It returns the execution order and the event count.
func stepOrder(inline bool) ([]string, int64) {
	const d, n = 10, 40
	e := NewEngine(1)
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%d:%s", e.Now(), who)) }
	var c Cond

	for i := 1; i <= n; i += 3 {
		e.At(Time(i*d), func() { note("pre") })
	}
	var chain func()
	chain = func() {
		note("chain")
		if e.Now() < n*d {
			e.After(d/2, func() { // lands between wake-ups, schedules onto one
				e.After(d/2, chain)
				e.After(d/2, func() { note("late"); c.Signal() })
			})
		}
	}
	e.At(d, chain)

	k := 0
	step := func() bool {
		k++
		note("step")
		if k%7 == 0 {
			e.After(d, func() { note("from-step") }) // same key race as the re-arm
		}
		return k < n
	}
	e.Go("stepper", func(p *Proc) {
		if inline {
			p.AdvanceWhile(d, step)
		} else {
			for {
				p.Advance(d)
				if !step() {
					break
				}
			}
		}
		note("stepper-done")
	})
	e.Go("peer", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(d)
			note("peer")
		}
	})
	e.GoDaemon("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			note("woken")
		}
	})
	e.RunAll()
	return log, e.EventsRun
}

// TestAdvanceWhileMatchesAdvanceLoop pins AdvanceWhile's contract: the same
// execution order and the same number of events as the Advance loop it
// replaces, ties included.
func TestAdvanceWhileMatchesAdvanceLoop(t *testing.T) {
	want, wantEvents := stepOrder(false)
	got, gotEvents := stepOrder(true)
	if gotEvents != wantEvents {
		t.Errorf("EventsRun = %d inline, %d with the Advance loop", gotEvents, wantEvents)
	}
	if len(got) != len(want) {
		t.Fatalf("%d log entries inline, %d with the Advance loop", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverges at entry %d: inline %q, Advance loop %q", i, got[i], want[i])
		}
	}
	ties := 0
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a[:strings.IndexByte(a, ':')] == b[:strings.IndexByte(b, ':')] {
			ties++
		}
	}
	if ties < 100 {
		t.Fatalf("only %d same-instant neighbours in the log; the scenario no longer exercises ties", ties)
	}
}

// seqOrder runs a process that charges segs back to back, round after
// round — through one AdvanceSeq when inline is set, through one Advance per
// segment otherwise — against what stepOrder ties wake-ups with: callbacks
// scheduled before the run at the same instants, callbacks scheduled at run
// time, a peer process on the same period, and a Cond wake-up. A positive
// pause runs the engine in Run horizons that far apart. It returns the
// execution order, the engine, and how many horizons stopped the run inside
// a chain, after its first segment's wake-up.
func seqOrder(t *testing.T, inline bool, segs []Time, pause Time) ([]string, *Engine, int) {
	const d, rounds = 10, 40
	e := NewEngine(1)
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%d:%s", e.Now(), who)) }
	var c Cond
	done := false

	for i := 1; i <= rounds; i += 3 {
		e.At(Time(i*d), func() { note("pre") })
	}
	var chain func()
	chain = func() {
		note("chain")
		if !done {
			e.After(d/2, func() {
				e.After(d/2, chain)
				e.After(d/2, func() { note("late"); c.Signal() })
			})
		}
	}
	e.At(d, chain)

	var start, first Time = 0, -1 // the chain in progress; first < 0: none
	e.Go("charger", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			start, first = p.Now(), max(segs[0], 0)
			if inline {
				p.AdvanceSeq(segs[0], segs[1:]...)
			} else {
				for _, s := range segs {
					p.Advance(s)
				}
			}
			first = -1
			note("charged")
			if i%5 == 0 {
				e.After(d, func() { note("from-charger") })
				c.Signal()
			}
		}
		done = true
	})
	e.Go("peer", func(p *Proc) {
		for !done {
			p.Advance(d)
			note("peer")
		}
	})
	e.GoDaemon("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			note("woken")
		}
	})
	midChain := 0
	if pause <= 0 {
		e.RunAll()
		return log, e, 0
	}
	for h := pause; e.Pending(); h += pause {
		if err := e.Run(h); err != nil {
			t.Fatal(err)
		}
		note("pause")
		if first >= 0 && e.Now() >= start+first {
			midChain++
		}
	}
	return log, e, midChain
}

// TestAdvanceSeqMatchesAdvanceCalls pins AdvanceSeq's contract: the same
// execution order and the same number of events as one Advance per segment,
// ties included — zero and negative segments, a chain longer than any
// fixed buffer, and Run horizons that pause a chain and resume it — with
// fewer process hand-offs.
func TestAdvanceSeqMatchesAdvanceCalls(t *testing.T) {
	for _, tc := range []struct {
		name  string
		segs  []Time
		pause Time
	}{
		{"three", []Time{10, 10, 10}, 0},
		{"zero segment", []Time{10, 0, 10}, 0},
		{"negative segment", []Time{10, -5, 10}, 0},
		{"zero first", []Time{0, 10, 10}, 0},
		{"one segment", []Time{10}, 0},
		{"sixteen segments", []Time{10, 5, 0, 10, 10, -1, 5, 5, 10, 0, 10, 10, 5, 5, 10, 10}, 0},
		{"paused by horizons", []Time{10, 5, 5}, 7},
	} {
		want, plain, _ := seqOrder(t, false, tc.segs, tc.pause)
		got, inline, midChain := seqOrder(t, true, tc.segs, tc.pause)
		if inline.EventsRun != plain.EventsRun {
			t.Errorf("%s: EventsRun = %d inline, %d with Advance calls", tc.name, inline.EventsRun, plain.EventsRun)
		}
		if len(tc.segs) > 1 && inline.Handoffs >= plain.Handoffs {
			t.Errorf("%s: %d hand-offs inline, %d with Advance calls, want fewer", tc.name, inline.Handoffs, plain.Handoffs)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d log entries inline, %d with Advance calls", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order diverges at entry %d: inline %q, Advance calls %q", tc.name, i, got[i], want[i])
			}
		}
		ties := 0
		for i := 1; i < len(want); i++ {
			a, b := want[i-1], want[i]
			if a[:strings.IndexByte(a, ':')] == b[:strings.IndexByte(b, ':')] {
				ties++
			}
		}
		if ties < 100 {
			t.Errorf("%s: only %d same-instant neighbours in the log; the scenario no longer exercises ties", tc.name, ties)
		}
		t.Logf("%s: ties %d, events %d, handoffs %d/%d, midChain %d", tc.name, ties, plain.EventsRun, inline.Handoffs, plain.Handoffs, midChain)
		if tc.pause > 0 && midChain == 0 {
			t.Errorf("%s: no horizon stopped the run inside a chain", tc.name)
		}
	}
}
