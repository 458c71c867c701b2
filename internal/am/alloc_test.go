package am_test

import (
	"bytes"
	"maps"
	"runtime"
	"testing"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/trace"
)

// pinOneP runs the rest of the test on a single P, as testing.AllocsPerRun
// does: the guards below diff the process-wide MemStats.Mallocs, and with
// more Ps the runtime's own goroutines (GC workers, timers) allocate
// concurrently inside the measured window.
func pinOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPollZeroAlloc enforces the tracing contract: with tracing and metrics
// off (the default), the AM hot path — an empty poll, including its virtual
// time advance through the engine's event loop — performs zero heap
// allocations, so observability support costs nothing when disabled.
func TestPollZeroAlloc(t *testing.T) {
	pinOneP(t)
	c := hw.NewCluster(hw.DefaultConfig(1))
	sys := am.New(c)
	var delta uint64
	c.Spawn(0, "poller", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		// Warm the engine's event pool, heap capacity, and goroutine stacks.
		for i := 0; i < 2048; i++ {
			ep.Poll(p)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			ep.Poll(p)
		}
		runtime.ReadMemStats(&after)
		delta = after.Mallocs - before.Mallocs
	})
	c.Run()
	if delta != 0 {
		t.Fatalf("%d heap allocations across 1000 empty polls with tracing off, want 0", delta)
	}
}

// BenchmarkPollEmpty reports allocs/op for the empty-poll hot path; the
// guard above makes the 0 allocs/op figure a hard requirement, this keeps it
// visible in benchmark output.
func BenchmarkPollEmpty(b *testing.B) {
	c := hw.NewCluster(hw.DefaultConfig(1))
	sys := am.New(c)
	b.ReportAllocs()
	c.Spawn(0, "poller", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < 64; i++ {
			ep.Poll(p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ep.Poll(p)
		}
	})
	c.Run()
}

// echoPair builds a 2-node cluster with a request handler that replies and
// returns (cluster, system, request id, reply counter pointer).
func echoPair(cfg hw.Config) (*hw.Cluster, *am.System, am.HandlerID, *int) {
	c := hw.NewCluster(cfg)
	sys := am.New(c)
	replies := new(int)
	replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		*replies++
	})
	reqH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Reply(p, tok, replyH, args[0])
	})
	return c, sys, reqH, replies
}

// echo issues one request and polls until its reply lands.
func echo(p *sim.Proc, ep *am.Endpoint, reqH am.HandlerID, replies *int, i int) {
	want := *replies + 1
	ep.Request(p, 1, reqH, uint32(i))
	for *replies < want {
		ep.Poll(p)
	}
}

// TestShortEchoZeroAlloc is the steady-state guard for the short-message
// data path: with tracing and metrics off, a request/reply round trip —
// header build, packet pool, adapter pipeline, switch, receive, handler
// dispatch, ack machinery, on BOTH nodes — performs zero heap allocations
// once the rings and free lists are warm.
func TestShortEchoZeroAlloc(t *testing.T) {
	pinOneP(t)
	c, sys, reqH, replies := echoPair(hw.DefaultConfig(2))
	stop := false
	var delta uint64
	var rttSamples int64
	c.Spawn(0, "req", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < 512; i++ {
			echo(p, ep, reqH, replies, i)
		}
		// Up to three measurement windows: background runtime activity
		// (sync.Pool pinning, GC bookkeeping) can contribute a stray
		// allocation to the global counter; the data path is proven
		// allocation-free by any clean window.
		var before, after runtime.MemStats
		for attempt := 0; attempt < 3; attempt++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			samples0 := ep.Stats.RTTSamples
			for i := 0; i < 500; i++ {
				echo(p, ep, reqH, replies, i)
			}
			runtime.ReadMemStats(&after)
			delta = after.Mallocs - before.Mallocs
			rttSamples = ep.Stats.RTTSamples - samples0
			if delta == 0 {
				break
			}
		}
		stop = true
	})
	c.Spawn(1, "svc", func(p *sim.Proc, n *hw.Node) {
		for !stop {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
	if delta != 0 {
		t.Fatalf("%d heap allocations across 500 echo round trips with observability off, want 0", delta)
	}
	if rttSamples == 0 {
		t.Fatal("no Karn-valid RTT samples taken inside the measured window; the guard no longer covers the estimator path")
	}
}

// TestPollWaitZeroAlloc is the same guard for a wait: both nodes sit in
// PollWait, so every round trip is an idle run stepped inline in the
// scheduler loop and then a packet. The step func value is made once per
// endpoint, so the wait itself must not allocate either.
func TestPollWaitZeroAlloc(t *testing.T) {
	pinOneP(t)
	c, sys, reqH, replies := echoPair(hw.DefaultConfig(2))
	done := false
	doneH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { done = true })
	var delta uint64
	var idle int64
	c.Spawn(0, "req", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		echoWait := func(i int) {
			want := *replies + 1
			ep.Request(p, 1, reqH, uint32(i))
			for *replies < want {
				ep.PollWait(p, 0)
			}
		}
		for i := 0; i < 512; i++ {
			echoWait(i)
		}
		var before, after runtime.MemStats
		for attempt := 0; attempt < 3; attempt++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			idle0 := ep.Stats.EmptyPolls
			for i := 0; i < 500; i++ {
				echoWait(i)
			}
			runtime.ReadMemStats(&after)
			delta = after.Mallocs - before.Mallocs
			idle = ep.Stats.EmptyPolls - idle0
			if delta == 0 {
				break
			}
		}
		ep.Request(p, 1, doneH)
	})
	c.Spawn(1, "svc", func(p *sim.Proc, n *hw.Node) {
		for !done {
			sys.EPs[1].PollWait(p, 0)
		}
	})
	c.Run()
	if delta != 0 {
		t.Fatalf("%d heap allocations across 500 PollWait round trips with observability off, want 0", delta)
	}
	if idle < 500 {
		t.Fatalf("only %d empty polls inside the measured window; the guard no longer covers idle runs", idle)
	}
}

// TestBulkZeroAlloc is the same guard for the bulk path: steady-state Store
// and Get loops (multi-chunk, full window slides, chunk reassembly, bulk-op
// recycling) must not allocate with observability off.
func TestBulkZeroAlloc(t *testing.T) {
	pinOneP(t)
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	const size = 16 << 10
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	remote := make([]byte, size)
	rseg := c.Nodes[1].Mem.Add(remote)
	local := make([]byte, size)
	lseg := c.Nodes[0].Mem.Add(local)
	stop := false
	var delta uint64
	var rttSamples int64
	c.Spawn(0, "tx", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		round := func() {
			ep.Store(p, 1, hw.Addr{Seg: rseg}, src, am.NoHandler, 0)
			ep.Get(p, 1, hw.Addr{Seg: rseg}, hw.Addr{Seg: lseg}, size, am.NoHandler)
		}
		for i := 0; i < 8; i++ {
			round()
		}
		var before, after runtime.MemStats
		for attempt := 0; attempt < 3; attempt++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			samples0 := ep.Stats.RTTSamples
			for i := 0; i < 10; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			delta = after.Mallocs - before.Mallocs
			rttSamples = ep.Stats.RTTSamples - samples0
			if delta == 0 {
				break
			}
		}
		stop = true
	})
	c.Spawn(1, "rx", func(p *sim.Proc, n *hw.Node) {
		for !stop {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
	if delta != 0 {
		t.Fatalf("%d heap allocations across 10 steady-state store+get rounds with observability off, want 0", delta)
	}
	if rttSamples == 0 {
		t.Fatal("no Karn-valid RTT samples taken inside the measured window; the guard no longer covers the estimator path")
	}
	for i := range src {
		if local[i] != src[i] {
			t.Fatalf("get round-trip corrupted byte %d", i)
		}
	}
}

// TestEchoAllocBoundWithObservability bounds the echo path with tracing AND
// metrics enabled: a saturated small-cap recorder drops events without
// allocating and metric handles are preallocated, so the steady state must
// stay within a small fixed budget per round trip.
func TestEchoAllocBoundWithObservability(t *testing.T) {
	pinOneP(t)
	c, sys, reqH, replies := echoPair(hw.DefaultConfig(2))
	c.Eng.SetTracer(trace.NewWithCap(1024))
	sys.EnableMetrics(trace.NewRegistry())
	stop := false
	var delta uint64
	const rounds = 200
	c.Spawn(0, "req", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < 256; i++ { // warm rings AND fill the recorder to cap
			echo(p, ep, reqH, replies, i)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			echo(p, ep, reqH, replies, i)
		}
		runtime.ReadMemStats(&after)
		delta = after.Mallocs - before.Mallocs
		stop = true
	})
	c.Spawn(1, "svc", func(p *sim.Proc, n *hw.Node) {
		for !stop {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
	const bound = 4 * rounds // small fixed per-round budget
	if delta > bound {
		t.Fatalf("%d heap allocations across %d echoes with trace+metrics on, want <= %d", delta, rounds, bound)
	}
}

// BenchmarkShortEcho measures the end-to-end request/reply round trip (both
// endpoints' host work plus the whole simulated pipeline) in host ns/op;
// allocs/op must read 0 with observability off.
func BenchmarkShortEcho(b *testing.B) {
	c, sys, reqH, replies := echoPair(hw.DefaultConfig(2))
	stop := false
	b.ReportAllocs()
	c.Spawn(0, "req", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < 256; i++ {
			echo(p, ep, reqH, replies, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			echo(p, ep, reqH, replies, i)
		}
		b.StopTimer()
		stop = true
	})
	c.Spawn(1, "svc", func(p *sim.Proc, n *hw.Node) {
		for !stop {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
}

// BenchmarkBulkStore measures an 8 KB blocking Store (one full 36-packet
// chunk, window slide, chunk ack) in host ns/op; 0 allocs/op steady state.
func BenchmarkBulkStore(b *testing.B) {
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	src := make([]byte, 8<<10)
	dst := make([]byte, 8<<10)
	seg := c.Nodes[1].Mem.Add(dst)
	stop := false
	b.ReportAllocs()
	c.Spawn(0, "tx", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < 16; i++ {
			ep.Store(p, 1, hw.Addr{Seg: seg}, src, am.NoHandler, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ep.Store(p, 1, hw.Addr{Seg: seg}, src, am.NoHandler, 0)
		}
		b.StopTimer()
		stop = true
	})
	c.Spawn(1, "rx", func(p *sim.Proc, n *hw.Node) {
		for !stop {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
	b.SetBytes(8 << 10)
}

// TestBulkStoreEventBudget pins the deterministic proxies of the bulk
// path's host cost, exactly: 16 windowed 64 KiB StoreAsync calls from node 0
// to node 1, polled to completion, take a fixed simulated time, a fixed
// number of scheduler events, and a fixed number of process hand-offs and
// coroutine switches. The events and the time are the protocol's; the
// hand-offs are what a host charge costs beyond its event (sim.Proc.AdvanceSeq
// steps a run of back-to-back charges inline), so a change meant to remove
// switches moves only the second pair.
func TestBulkStoreEventBudget(t *testing.T) {
	const stores, size = 16, 64 << 10
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	src := make([]byte, stores*size)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, len(src))
	seg := c.Nodes[1].Mem.Add(dst)
	done, completed := false, 0
	var elapsed sim.Time
	doneH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { done = true })
	c.Spawn(0, "mover", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < stores; i++ {
			off := i * size
			ep.StoreAsync(p, 1, hw.Addr{Seg: seg, Off: off}, src[off:off+size], am.NoHandler, 0,
				func(*sim.Proc, *am.Endpoint) { completed++ })
		}
		for completed < stores {
			ep.Poll(p)
		}
		elapsed = p.Now()
		ep.Request(p, 1, doneH)
	})
	c.Spawn(1, "sink", func(p *sim.Proc, n *hw.Node) {
		for !done {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
	if !bytes.Equal(src, dst) {
		t.Fatal("the stored bytes differ from the source")
	}
	e := c.Eng
	const wantElapsed, wantEvents = 31629984, 76106
	if elapsed != wantElapsed || e.EventsRun != wantEvents {
		t.Errorf("%d stores of %d bytes took %d ns and %d events, want %d and %d",
			stores, size, elapsed, e.EventsRun, wantElapsed, wantEvents)
	}
	const wantHandoffs, wantSwitches = 20986, 20986
	if e.Handoffs != wantHandoffs || e.Switches != wantSwitches {
		t.Errorf("%d stores of %d bytes took %d process hand-offs and %d coroutine switches, want %d and %d",
			stores, size, e.Handoffs, e.Switches, wantHandoffs, wantSwitches)
	}
}

// TestMetricsCounters wires a registry in with EnableMetrics and checks
// that the run publishes each tagged Stats field once, under its name, with
// the value Totals sums — whether the cluster runs through Run or RunChecked
// — and that the live histograms saw the run. The first reply is dropped,
// so the keep-alive probe and a retransmission move too.
func TestMetricsCounters(t *testing.T) {
	for _, checked := range []bool{false, true} {
		c := hw.NewCluster(hw.DefaultConfig(2))
		sent := 0
		c.Switch.Fault = hw.DropIf(func(pkt *hw.Packet) bool {
			sent++
			return pkt.Src == 1 && sent == 2
		})
		sys := am.New(c)
		reg := trace.NewRegistry()
		sys.EnableMetrics(reg)
		done := false
		replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
			done = true
		})
		reqH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
			ep.Reply(p, tok, replyH, args[0])
		})
		c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[0]
			ep.Request(p, 1, reqH, 7)
			for !done {
				ep.Poll(p)
			}
		})
		c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[1]
			for !done {
				ep.Poll(p)
			}
		})
		if !checked {
			c.Run()
		} else if err := c.RunChecked(hw.US(50_000)); err != nil {
			t.Fatal(err)
		}

		st := sys.Totals()
		want := map[string]int64{
			"am.polls": st.Polls, "am.polls_empty": st.EmptyPolls,
			"am.retransmits": st.Retransmits, "am.acks_sent": st.AcksSent,
			"am.nacks_sent": st.NacksSent, "am.probes_sent": st.Probes,
			"am.corrupt_dropped": st.CorruptDropped, "am.backoffs": st.Backoffs,
			"am.peer_deaths": st.DeadPeers,
		}
		got := map[string]int64{}
		for _, m := range reg.Snapshot() {
			if m.Kind == trace.KCounter {
				got[m.Name] = int64(m.Value)
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("RunChecked %v: registry counters %v, Totals %v", checked, got, want)
		}
		if st.Polls == 0 || st.EmptyPolls == 0 || st.Probes == 0 || st.Retransmits == 0 {
			t.Errorf("RunChecked %v: the run moved too little to check: %+v", checked, st)
		}
		if h := reg.Histogram("am.window_inflight"); h.Count() == 0 {
			t.Errorf("RunChecked %v: am.window_inflight saw no observations", checked)
		}
		if h := reg.Histogram("am.recv_fifo_occupancy"); h.Count() != st.Polls {
			t.Errorf("RunChecked %v: am.recv_fifo_occupancy saw %d polls, Totals %d", checked, h.Count(), st.Polls)
		}
	}
}
