package sim

import (
	"runtime"
	"testing"
)

// TestEngineSteadyStateZeroAlloc makes the "0 allocs/op" column of the
// benchmarks in engine_bench_test.go a requirement: once its pools, heap and
// run queue have grown to size, the engine schedules, pops and
// dispatches events and hands control between processes without allocating.
// Each case is the benchmark of the same name cut into repeatable steps.
//
// testing.AllocsPerRun diffs the process-wide malloc count and truncates the
// per-run average to an integer, so a stray runtime allocation cannot fail
// the guard while one allocation per step cannot pass it. It pins one P for
// each measurement; pinning it for the whole test puts the warm-up on that
// same P's caches.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200

	// inProc measures step inside a process of a fresh engine, with the
	// given daemons spawned (and so parked) first; stop is set when the
	// measurement is over.
	inProc := func(step func(p *Proc), background ...func(p *Proc, stop *bool)) float64 {
		e := NewEngine(1)
		var allocs float64
		stop := false
		for _, bg := range background {
			e.GoDaemon("background", func(p *Proc) { bg(p, &stop) })
		}
		e.Go("measured", func(p *Proc) {
			allocs = testing.AllocsPerRun(runs, func() { step(p) })
			stop = true
		})
		e.RunAll()
		e.Release() // the daemons still parked
		return allocs
	}

	cases := []struct {
		name   string
		allocs func() float64
	}{
		{"callback event", func() float64 {
			e := NewEngine(1)
			n := 0
			var step func()
			step = func() {
				if n++; n < 64 {
					e.After(1, step)
				}
			}
			return testing.AllocsPerRun(runs, func() { n = 0; e.After(1, step); e.RunAll() })
		}},
		{"heap churn", func() float64 {
			e := NewEngine(1)
			const depth = 512
			r := NewRand(7)
			n := 0
			var fire func()
			fire = func() {
				if n++; n <= depth {
					e.After(Time(1+r.Intn(1000)), fire)
				}
			}
			return testing.AllocsPerRun(runs, func() {
				n = 0
				for i := 0; i < depth; i++ {
					e.After(Time(1+r.Intn(1000)), fire)
				}
				e.RunAll()
			})
		}},
		{"near-queue spill", func() float64 {
			// Six events in one 64 ns slot (four fit) and three beyond the
			// span: the spill path into the far heap.
			e := NewEngine(1)
			nop := func() {}
			return testing.AllocsPerRun(runs, func() {
				for i := 0; i < 6; i++ {
					e.After(100, nop)
				}
				for i := 1; i <= 3; i++ {
					e.After(Time(i)*nearSpan, nop)
				}
				e.RunAll()
			})
		}},
		{"server backlog", func() float64 {
			run := serverBacklog(NewEngine(1))
			return testing.AllocsPerRun(runs, func() { run(8 * 512) })
		}},
		{"Advance", func() float64 { return inProc(func(p *Proc) { p.Advance(1) }) }},
		{"Yield", func() float64 { return inProc(func(p *Proc) { p.Yield() }) }},
		{"AdvanceWhile", func() float64 {
			// The stepper's events run inline in the measured process's
			// scheduler loop, interleaved with its own wake-ups.
			return inProc(func(p *Proc) { p.Advance(2) }, func(p *Proc, stop *bool) {
				p.Advance(1)
				p.AdvanceWhile(2, func() bool { return !*stop })
			})
		}},
		{"AdvanceSeq", func() float64 {
			// Three charges against an interleaved advancer: the first two
			// wake-ups step inline, in whichever scheduler loop pops them.
			return inProc(func(p *Proc) { p.AdvanceSeq(2, 2, 0, 2) }, func(p *Proc, stop *bool) {
				p.Advance(1)
				for !*stop {
					p.Advance(2)
				}
			})
		}},
		{"interleaved Advance", func() float64 {
			// Every wake-up belongs to the other process: one hand-off per
			// step (BenchmarkProcHandoffInterleaved).
			return inProc(func(p *Proc) { p.Advance(2) }, func(p *Proc, stop *bool) {
				p.Advance(1)
				for !*stop {
					p.Advance(2)
				}
			})
		}},
		{"ring of 8", func() float64 {
			// Round-robin: seven nested resumes, then seven yields back to
			// the measured process (BenchmarkProcHandoffRing).
			var others []func(p *Proc, stop *bool)
			for i := 1; i < 8; i++ {
				others = append(others, func(p *Proc, stop *bool) {
					p.Advance(Time(i))
					for !*stop {
						p.Advance(8)
					}
				})
			}
			return inProc(func(p *Proc) { p.Advance(8) }, others...)
		}},
		{"Cond signal ping-pong", func() float64 {
			a, c := &Cond{Name: "a"}, &Cond{Name: "c"}
			return inProc(func(p *Proc) { c.Signal(); a.Wait(p) }, func(p *Proc, stop *bool) {
				for {
					c.Wait(p)
					a.Signal()
				}
			})
		}},
	}
	for _, tc := range cases {
		if got := tc.allocs(); got != 0 {
			t.Errorf("%s: %v allocations per step in steady state, want 0", tc.name, got)
		}
	}
}
