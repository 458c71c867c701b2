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
