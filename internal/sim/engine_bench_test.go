package sim

import (
	"fmt"
	"testing"
)

// Host-time microbenchmarks of the engine hot paths. Unlike the simulated
// benchmarks at the repo root (whose Go ns/op is meaningless), these measure
// the real cost of the event loop itself — events/sec is the figure that
// bounds how many scenarios a wall-clock budget can afford to run. The repo
// benchmark's probes (sim.callback_ns, sim.advance_ns, sim.handoff_ns in
// BENCH_host.json) time three of these paths; EXPERIMENTS.md tabulates the
// rest, and TestEngineSteadyStateZeroAlloc requires their 0 allocs/op.

// BenchmarkEngineCallbackEvents drives a self-rechaining callback: one
// schedule + one pop + one dispatch per op with a near-empty heap. This is
// the pure per-event overhead floor.
func BenchmarkEngineCallbackEvents(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	e.After(1, step)
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineHeapChurn keeps ~512 events outstanding at pseudo-random
// times within 1,000 ns: 16 near-queue slots hold 64 of them, so most spill
// to the heap, the near queue's worst case and real sift-up/sift-down work
// per operation.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine(1)
	const depth = 512
	r := NewRand(7)
	count := 0
	var fire func()
	fire = func() {
		count++
		if count+depth <= b.N {
			e.After(Time(1+r.Intn(1000)), fire)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		e.After(Time(1+r.Intn(1000)), fire)
	}
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// nearDelay draws a delay like the benchmark workloads' pushes
// (EXPERIMENTS.md, "What the event heap holds"): all below 8,192 ns, the
// mode in 1,024-2,047 ns, where the 1.3 us empty poll sits.
func nearDelay(r *Rand) Time {
	switch k := r.Intn(100); {
	case k < 45:
		return 1300
	case k < 56:
		return 1024 + Time(r.Intn(1024))
	case k < 60:
		return 128 + Time(r.Intn(128))
	case k < 71:
		return 256 + Time(r.Intn(256))
	case k < 84:
		return 512 + Time(r.Intn(512))
	case k < 90:
		return 2048 + Time(r.Intn(2048))
	default:
		return 4096 + Time(r.Intn(4096))
	}
}

// BenchmarkEngineNearQueue keeps 16 or 52 events outstanding, the mean
// queue lengths of kv_mixed and mpi_nas, each re-arming itself at a
// nearDelay: the near queue's judge-shaped row. BenchmarkEngineHeapChurn is
// its spill worst case.
func BenchmarkEngineNearQueue(b *testing.B) {
	for _, depth := range []int{16, 52} {
		b.Run(fmt.Sprint("outstanding=", depth), func(b *testing.B) {
			e := NewEngine(1)
			r := NewRand(7)
			count := 0
			var fire func()
			fire = func() {
				count++
				if count+depth <= b.N {
					e.After(nearDelay(r), fire)
				}
			}
			for i := 0; i < depth && i < b.N; i++ {
				e.After(nearDelay(r), fire)
			}
			e.RunAll()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// serverBacklog builds eight servers on e and returns a function that runs n
// jobs through them, 512 outstanding on the first and one on each of the
// others, every completion submitting the next job to its own server: the
// shape of a backlogged port among idle ones.
func serverBacklog(e *Engine) func(n int) {
	var srv [8]*Server
	var done [8]func()
	left := 0
	for i := range srv {
		s := NewServer(e)
		srv[i] = s
		done[i] = func() {
			if left > 0 {
				left--
				s.Submit(8, done[i])
			}
		}
	}
	return func(n int) {
		left = n
		for i, s := range srv {
			outstanding := 1
			if i == 0 {
				outstanding = 512
			}
			for ; outstanding > 0 && left > 0; outstanding-- {
				left--
				s.Submit(8, done[i])
			}
		}
		e.RunAll()
	}
}

// BenchmarkServerBacklog: one job per op through serverBacklog. The heap
// holds the eight jobs in service, not the 519 outstanding, so a completion
// sifts through two levels rather than five.
func BenchmarkServerBacklog(b *testing.B) {
	serverBacklog(NewEngine(1))(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcAdvance measures a process waking itself: each op is one
// Advance(1) — a schedule and a heap pop inside the process's own scheduler
// loop, no switch (ns/op is ns/dispatch).
func BenchmarkProcAdvance(b *testing.B) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcAdvanceWhile is the case AdvanceWhile exists for: two
// processes, one idle-stepping and one advancing, with interleaved wake-ups.
// Written as two Advance loops every event is a process hand-off
// (BenchmarkProcHandoffInterleaved); here the stepper's events run inline,
// so the advancing process keeps waking itself and ns/op (per event, both
// processes counted) stays near BenchmarkProcAdvance.
func BenchmarkProcAdvanceWhile(b *testing.B) {
	e := NewEngine(1)
	left := b.N / 2
	e.Go("stepper", func(p *Proc) {
		p.AdvanceWhile(2, func() bool { left--; return left > 0 })
	})
	e.Go("advancer", func(p *Proc) {
		p.Advance(1)
		for i := 0; i < b.N/2; i++ {
			p.Advance(2)
		}
	})
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcAdvanceSeq is a run of three back-to-back charges against an
// advancing process, wake-ups interleaved. As three Advance calls every
// event is a process hand-off (BenchmarkProcHandoffInterleaved); here the
// first two charges of each run step inline and only the last wakes the
// charger, so ns/op (per event, both processes counted) falls toward
// BenchmarkProcAdvanceWhile's.
func BenchmarkProcAdvanceSeq(b *testing.B) {
	e := NewEngine(1)
	e.Go("charger", func(p *Proc) {
		for i := 0; i < b.N/6; i++ {
			p.AdvanceSeq(2, 2, 2)
		}
	})
	e.Go("advancer", func(p *Proc) {
		p.Advance(1)
		for i := 0; i < b.N/2; i++ {
			p.Advance(2)
		}
	})
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcYield measures Advance(0) — the same-time wakeup path that
// the run queue serves without touching the heap.
func BenchmarkProcYield(b *testing.B) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(0)
		}
	})
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// spawnPollers starts n processes each doing laps Advance(d), offset by d/n,
// so every wake-up belongs to the next process round-robin and costs one
// heap pop plus one hand-off.
func spawnPollers(e *Engine, n, laps int) {
	const d = 1300
	for i := 0; i < n; i++ {
		offset := Time(i) * d / Time(n)
		e.Go("poller", func(p *Proc) {
			p.Advance(offset)
			for k := 0; k < laps; k++ {
				p.Advance(d)
			}
		})
	}
}

// spawnFan starts one hub that wakes seven spokes in turn, rounds times,
// each of which wakes the hub back; the spokes are daemons, left parked.
func spawnFan(e *Engine, rounds int) {
	back := &Cond{Name: "hub"}
	spokes := make([]Cond, 7)
	for i := range spokes {
		c := &spokes[i]
		c.Name = "spoke"
		e.GoDaemon("spoke", func(p *Proc) {
			for {
				c.Wait(p)
				back.Signal()
			}
		})
	}
	e.Go("hub", func(p *Proc) {
		p.Yield() // let every spoke reach its Wait
		for k := 0; k < rounds; k++ {
			spokes[k%len(spokes)].Signal()
			back.Wait(p)
		}
	})
}

// handoffs runs a shape of b.N hand-offs to completion.
func handoffs(b *testing.B, spawn func(e *Engine)) {
	e := NewEngine(1)
	spawn(e)
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	e.Release()
}

// BenchmarkProcHandoffInterleaved is the shape of two nodes polling an empty
// network (the am_echo workload, 97% of whose polls are empty): the parked
// process resumes the other one, which yields back to it — one coroutine
// switch per hand-off.
func BenchmarkProcHandoffInterleaved(b *testing.B) {
	handoffs(b, func(e *Engine) { spawnPollers(e, 2, b.N/2) })
}

// BenchmarkProcHandoffRing is the unwinding worst case: eight processes
// round-robin, so seven nested resumes are followed by seven yields back to
// the first — 1.75 switches per hand-off.
func BenchmarkProcHandoffRing(b *testing.B) {
	handoffs(b, func(e *Engine) { spawnPollers(e, 8, b.N/8) })
}

// BenchmarkProcHandoffFan: the chain is never deeper than two, one switch
// per hand-off however many processes there are.
func BenchmarkProcHandoffFan(b *testing.B) {
	handoffs(b, func(e *Engine) { spawnFan(e, b.N/2) })
}

// BenchmarkCondSignalPingPong bounces two processes off each other through
// a pair of condition variables: each op is one Signal wakeup (same-time
// scheduling) plus a hand-off.
//
// Signal's handoff fast path (see Cond.Signal) keeps each wakeup out of the
// event queues entirely when the woken process is provably next. The gain
// is small here because each op also pays the process switch, which the
// fast path cannot remove; its structural win is that a signal no longer
// touches the run queue, so wakeup cost stays flat no matter how deep the
// event queue is at signal time.
//
// An attempt to shave the remaining sim-side cost (consuming the handoff
// directly in the scheduler loops, skipping the nop event and the wake slot)
// regressed BenchmarkEngineCallbackEvents ~15% by pushing the 32-byte event
// value out of registers — the cliff documented on the event struct — and
// was abandoned. A real regression on this path shows as sim.handoff_ns in
// paired benchmark/run.sh reports; single runs on a shared host are noise.
func BenchmarkCondSignalPingPong(b *testing.B) {
	e := NewEngine(1)
	a, c := &Cond{Name: "a"}, &Cond{Name: "b"}
	e.Go("p0", func(p *Proc) {
		p.Advance(0) // let p1 reach its first Wait so no signal is lost
		for i := 0; i < b.N/2; i++ {
			c.Signal()
			a.Wait(p)
		}
		c.Signal()
	})
	e.Go("p1", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			c.Wait(p)
			a.Signal()
		}
	})
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
