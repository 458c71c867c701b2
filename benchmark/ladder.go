package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"spam/internal/am"
	"spam/internal/bench"
	"spam/internal/hw"
	"spam/internal/kv"
	"spam/internal/kv/load"
	"spam/internal/mpi"
	"spam/internal/sim"
	"spam/internal/splitc"
)

// ladderRung is one layer's smallest blocking operation, repeated on
// otherwise idle nodes: what one iteration costs in simulated microseconds
// and in host nanoseconds. Each rung adds one layer to the one below, so a
// layer's self cost is its rung minus the rung below it.
type ladderRung struct {
	Name   string  `json:"name"`
	Below  string  `json:"below,omitempty"`
	SimUS  float64 `json:"sim_us"`
	HostNS float64 `json:"host_ns"`
}

// timeRun is the wall time of fn; the collector runs first, as for the
// workloads' timed regions.
func timeRun(fn func()) time.Duration {
	runtime.GC()
	t := time.Now()
	fn()
	return time.Since(t)
}

// perIter reduces iters iterations, elapsed of simulated time and d of host
// time, to one rung.
func perIter(name, below string, elapsed sim.Time, d time.Duration, iters int) ladderRung {
	return ladderRung{Name: name, Below: below, SimUS: elapsed.Microseconds() / float64(iters), HostNS: float64(d.Nanoseconds()) / float64(iters)}
}

// rawRung is a protocol-less packet ping-pong: hw alone (TB2 adapters and
// the switch) under the thinnest possible send/receive code.
func rawRung(iters int) ladderRung {
	var us float64
	d := timeRun(func() { us = bench.RawRoundTrip(iters) })
	return ladderRung{Name: "hw raw packet", SimUS: us, HostNS: float64(d.Nanoseconds()) / float64(iters)}
}

// echoRung is the am_echo workload at ladder length.
func echoRung(iters int) ladderRung {
	c := hw.NewCluster(hw.DefaultConfig(2))
	e := spawnEcho(c, am.New(c), iters, 1)
	d := timeRun(c.Run)
	return perIter("am echo", "hw raw packet", e.elapsed, d, iters)
}

// mpiRung is a 4-byte MPI_Send/MPI_Recv ping-pong over MPI-AM.
func mpiRung(iters int) ladderRung {
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := mpi.New(c, mpi.Optimized())
	var elapsed sim.Time
	for rank := 0; rank < 2; rank++ {
		rank, cm := rank, sys.Comms[rank]
		c.Spawn(rank, "pingpong", func(p *sim.Proc, n *hw.Node) {
			buf := make([]byte, 4)
			trip := func() {
				if rank == 0 {
					cm.SendB(p, buf, 1, 1)
					cm.RecvB(p, buf, 1, 1)
				} else {
					cm.RecvB(p, buf, 0, 1)
					cm.SendB(p, buf, 0, 1)
				}
			}
			trip()
			t0 := p.Now()
			for i := 0; i < iters; i++ {
				trip()
			}
			if rank == 0 {
				elapsed = p.Now() - t0
			}
		})
	}
	d := timeRun(c.Run)
	return perIter("mpi ping-pong", "am echo", elapsed, d, iters)
}

// splitcRung is a blocking 8-byte Split-C read of a remote global pointer.
func splitcRung(iters int) ladderRung {
	pl := splitc.NewSPAM(2, 64)
	var elapsed sim.Time
	d := timeRun(func() {
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			if rt.ID() == 0 {
				gp := splitc.GlobalPtr{Node: 1, Off: 0}
				rt.Read(p, gp, 0, 8)
				t0 := p.Now()
				for i := 0; i < iters; i++ {
					rt.Read(p, gp, 0, 8)
				}
				elapsed = p.Now() - t0
			}
			rt.Barrier(p) // node 1 serves the reads while it waits here
		})
	})
	return perIter("splitc read", "am echo", elapsed, d, iters)
}

// kvRung is an unloaded kv GET: one client node, one server, uniform keys,
// cache off so every GET is a fetch, arrivals far enough apart that
// requests rarely overlap. The histogram's mean is exact; its percentiles
// are log2-bucket estimates, too coarse to subtract a rung from.
func kvRung(iters int) (ladderRung, error) {
	cfg := kv.Config{
		Servers: 1, ClientNodes: 1, Replicas: 1, Keys: 1 << 16, Mix: load.Mix{Get: 1},
		Rate: 5000, Requests: iters, CacheOff: true, Seed: 1,
	}
	svc, err := kv.New(cfg)
	if err != nil {
		return ladderRung{}, err
	}
	var res *kv.Result
	d := timeRun(func() { res, err = svc.Run() })
	if err != nil {
		return ladderRung{}, err
	}
	if res.Completed != int64(iters) {
		return ladderRung{}, fmt.Errorf("ladder: kv GET rung completed %d of %d", res.Completed, iters)
	}
	return ladderRung{Name: "kv unloaded GET", Below: "am echo", SimUS: res.LatGet.Mean() / 1e3, HostNS: float64(d.Nanoseconds()) / float64(iters)}, nil
}

// Probes: host cost of the engine's three primitives and of the pieces of
// other layers that a workload cannot isolate.

// probeCallback is one self-rescheduling callback event.
func probeCallback(n int) float64 {
	e := sim.NewEngine(1)
	left := n
	var step func()
	step = func() {
		if left--; left > 0 {
			e.After(1, step)
		}
	}
	e.After(1, step)
	return float64(timeRun(e.RunAll).Nanoseconds()) / float64(n)
}

// probeAdvance is one Advance(1) of a lone process: schedule, pop, resume.
func probeAdvance(n int) float64 {
	e := sim.NewEngine(1)
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
		}
	})
	return float64(timeRun(e.RunAll).Nanoseconds()) / float64(n)
}

// probeHandoff is one process-to-process wakeup over sim.Cond, the
// goroutine switch every blocking call between simulated nodes pays.
func probeHandoff(n int) float64 {
	e := sim.NewEngine(1)
	a, b := &sim.Cond{Name: "a"}, &sim.Cond{Name: "b"}
	e.Go("p0", func(p *sim.Proc) {
		p.Advance(0) // let p1 reach its first Wait so no signal is lost
		for i := 0; i < n/2; i++ {
			b.Signal()
			a.Wait(p)
		}
		b.Signal()
	})
	e.Go("p1", func(p *sim.Proc) {
		for i := 0; i < n/2; i++ {
			b.Wait(p)
			a.Signal()
		}
	})
	return float64(timeRun(e.RunAll).Nanoseconds()) / float64(n)
}

// probePollEmpty is one am.Poll that finds nothing.
func probePollEmpty(n int) float64 {
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	c.Spawn(0, "poller", func(p *sim.Proc, _ *hw.Node) {
		for i := 0; i < n; i++ {
			sys.EPs[0].Poll(p)
		}
	})
	return float64(timeRun(c.Run).Nanoseconds()) / float64(n)
}

// probeSmallBulk is the n½ regime: 256-byte asynchronous stores, where
// per-operation cost rather than the wire sets the bandwidth.
func probeSmallBulk(n int) (mbps, hostUSPerStore float64) {
	const size = 256
	d := timeRun(func() { mbps = bench.AMBandwidth(bench.AsyncStore, size, n*size) })
	return mbps, float64(d.Microseconds()) / float64(n)
}

// probeLoadGen is one request's worth of draws from the kv load generator.
func probeLoadGen(n int) float64 {
	var sink uint64
	d := timeRun(func() {
		g := load.NewGen(1, 100e3, 1<<16, 1.3, load.DefaultMix(), 0, 1<<20)
		for i := 0; i < n; i++ {
			sink += uint64(g.NextGap()) + uint64(g.NextKey()) + uint64(g.NextOp()) + uint64(g.NextClient())
		}
	})
	_ = sink
	return float64(d.Nanoseconds()) / float64(n)
}

// echoBreakdown attributes the 26 stage means of the traced echo (which sum
// exactly to the round trip) to am software, the TB2 adapters, the switch,
// and time a packet sat in a receive FIFO waiting for a poll.
func echoBreakdown() (sw, tb2, swt, wait float64, err error) {
	b, err := bench.PingPongBreakdown(1, 1600)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, st := range b.Stages {
		switch name := st.Name[strings.Index(st.Name, " ")+1:]; name {
		case "FIFO wait":
			wait += st.MeanUS
		case "inject", "fabric", "eject":
			swt += st.MeanUS
		case "pickup", "i860 send", "DMA out", "i860 recv", "DMA in":
			tb2 += st.MeanUS
		default: // build+flush, commit, pop+deliver, handler, turnaround
			sw += st.MeanUS
		}
	}
	return sw, tb2, swt, wait, nil
}

// ladder holds what the layer ladder, the echo breakdown and the probes
// measured. None of it depends on the workload, so a process measures it
// once.
type ladder struct {
	Rungs []ladderRung
	Vals  map[string]float64
}

// ladderPasses is how many times the ladder is measured; host costs are the
// median over the passes, simulated ones are the same in each.
const ladderPasses = 3

// runLadder measures every rung, the breakdown and the probes.
func runLadder(iters int) (*ladder, error) {
	passes := make([]*ladder, ladderPasses)
	for i := range passes {
		var err error
		if passes[i], err = ladderPass(iters); err != nil {
			return nil, err
		}
	}
	out := passes[0]
	at := func(f func(l *ladder) float64) float64 {
		v := make([]float64, len(passes))
		for i, l := range passes {
			v[i] = f(l)
		}
		return median(v)
	}
	for k := range out.Vals {
		out.Vals[k] = at(func(l *ladder) float64 { return l.Vals[k] })
	}
	for i := range out.Rungs {
		out.Rungs[i].HostNS = at(func(l *ladder) float64 { return l.Rungs[i].HostNS })
	}
	return out, nil
}

func ladderPass(iters int) (*ladder, error) {
	raw, echo, mp, sc := rawRung(iters), echoRung(iters), mpiRung(iters), splitcRung(iters)
	// The GET rung is paced by its arrival rate, so every iteration costs a
	// long idle gap of host time; a tenth of the iterations is plenty.
	get, err := kvRung(max(iters/10, 20))
	if err != nil {
		return nil, err
	}
	sw, tb2, swt, wait, err := echoBreakdown()
	if err != nil {
		return nil, err
	}
	bulkMBps, bulkHostUS := probeSmallBulk(iters)
	probeN := 50 * iters
	return &ladder{
		Rungs: []ladderRung{raw, echo, mp, sc, get},
		Vals: map[string]float64{
			"hw.raw_rtt_us":                   raw.SimUS,
			"hw.raw_rtt_host_ns":              raw.HostNS,
			"am.echo_rtt_us":                  echo.SimUS,
			"am.echo_host_ns":                 echo.HostNS,
			"am.self_rtt_us":                  echo.SimUS - raw.SimUS,
			"am.self_host_ns":                 echo.HostNS - raw.HostNS,
			"mpi.pingpong_us":                 mp.SimUS,
			"mpi.pingpong_host_ns":            mp.HostNS,
			"mpi.self_oneway_us":              (mp.SimUS - echo.SimUS) / 2,
			"splitc.read_us":                  sc.SimUS,
			"splitc.self_us":                  sc.SimUS - echo.SimUS,
			"kv.unloaded_get_mean_us":         get.SimUS,
			"kv.self_get_us":                  get.SimUS - echo.SimUS,
			"am.echo_sw_us":                   sw,
			"hw.echo_tb2_us":                  tb2,
			"hw.echo_switch_us":               swt,
			"am.echo_fifo_wait_us":            wait,
			"sim.callback_ns":                 probeCallback(probeN),
			"sim.advance_ns":                  probeAdvance(probeN),
			"sim.handoff_ns":                  probeHandoff(probeN),
			"am.poll_empty_host_ns":           probePollEmpty(probeN),
			"am.bulk_small_mb_per_s":          bulkMBps,
			"am.bulk_small_host_us_per_store": bulkHostUS,
			"load.gen_host_ns_per_req":        probeLoadGen(probeN),
		},
	}, nil
}
