package am_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/trace"
)

// waitFn is how a scenario's processes wait: poll until cond holds or a poll
// completes at or after until (0 = no deadline).
type waitFn func(p *sim.Proc, ep *am.Endpoint, until sim.Time, cond func() bool)

func expired(p *sim.Proc, until sim.Time) bool { return until > 0 && p.Now() >= until }

// waitByPoll is the loop PollWait replaces.
func waitByPoll(p *sim.Proc, ep *am.Endpoint, until sim.Time, cond func() bool) {
	for !cond() && !expired(p, until) {
		ep.Poll(p)
	}
}

// waitByPollWait also checks PollWait's return value: the polls it reports
// are the polls the endpoint counted.
func waitByPollWait(t *testing.T) waitFn {
	return func(p *sim.Proc, ep *am.Endpoint, until sim.Time, cond func() bool) {
		for !cond() && !expired(p, until) {
			before := ep.Stats.Polls
			if n := ep.PollWait(p, until); int64(n) != ep.Stats.Polls-before || n < 1 {
				t.Errorf("node %d: PollWait returned %d, Stats.Polls moved by %d", ep.ID(), n, ep.Stats.Polls-before)
			}
		}
	}
}

// waitEnv is what a scenario gets to build its processes from.
type waitEnv struct {
	c    *hw.Cluster
	sys  *am.System
	wait waitFn
}

// waitOutcome is everything two runs of one scenario must agree on.
type waitOutcome struct {
	End      sim.Time
	Events   int64
	Stats    []am.Stats
	Channels []am.ChannelDebug // [node][peer][ch], flattened
	Observed string            // trace timeline + metrics registry, as the commands print them
}

// runWait runs scenario on an n-node cluster with a tracer and a metrics
// registry attached, its processes waiting through wait.
func runWait(n int, sendProc sim.Time, opt am.Options, wait waitFn, scenario func(e *waitEnv)) waitOutcome {
	cfg := hw.DefaultConfig(n)
	if sendProc > 0 {
		cfg.Adapter.SendProc = sendProc
	}
	c := hw.NewCluster(cfg)
	rec := trace.New()
	c.Eng.SetTracer(rec)
	sys := am.NewWithOptions(c, opt)
	reg := trace.NewRegistry()
	sys.EnableMetrics(reg)
	scenario(&waitEnv{c: c, sys: sys, wait: wait})
	c.Run()

	out := waitOutcome{End: c.Eng.Now(), Events: c.Events()}
	for _, ep := range sys.EPs {
		out.Stats = append(out.Stats, ep.Stats)
		for peer := 0; peer < n; peer++ {
			out.Channels = append(out.Channels, ep.DebugChannel(peer, 0), ep.DebugChannel(peer, 1))
		}
	}
	var b bytes.Buffer
	trace.WriteTimeline(&b, rec.Sorted())
	trace.WriteMetrics(&b, reg.Snapshot())
	out.Observed = b.String()
	return out
}

// fastKeepAlive shortens the keep-alive ladder so probe rounds, backoff and
// a death declaration fit in well under a simulated second; the thresholds
// still span hundreds of idle polls each.
func fastKeepAlive() am.Options {
	o := am.DefaultOptions()
	o.KeepAlivePolls = 150
	return o
}

// echoServer spawns node id's program: wait until the done handler ran.
func echoServer(e *waitEnv, id int, done *bool) {
	e.c.Spawn(id, "svc", func(p *sim.Proc, _ *hw.Node) {
		e.wait(p, e.sys.EPs[id], 0, func() bool { return *done })
	})
}

var waitScenarios = []struct {
	name     string
	nodes    int
	sendProc sim.Time // adapter per-packet send time override (0 = calibrated)
	opt      am.Options
	build    func(e *waitEnv)
	check    func(t *testing.T, o waitOutcome)
}{
	{
		name: "echo", nodes: 2, opt: am.DefaultOptions(),
		build: func(e *waitEnv) {
			replies, done := 0, false
			replyH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { replies++ })
			reqH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
				ep.Reply(p, tok, replyH, args[0])
			})
			doneH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { done = true })
			e.c.Spawn(0, "req", func(p *sim.Proc, n *hw.Node) {
				ep := e.sys.EPs[0]
				for i := 0; i < 200; i++ {
					ep.Request(p, 1, reqH, uint32(i))
					e.wait(p, ep, 0, func() bool { return replies > i })
					n.Compute(p, hw.US(float64(i%5)*40)) // idle stretches of varying length on node 1
				}
				ep.Request(p, 1, doneH)
			})
			echoServer(e, 1, &done)
		},
	},
	{
		name: "windowed-bulk", nodes: 2, opt: am.DefaultOptions(),
		build: func(e *waitEnv) {
			done := false
			doneH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { done = true })
			seg := e.c.Nodes[1].Mem.Add(make([]byte, 64<<10))
			e.c.Spawn(0, "tx", func(p *sim.Proc, _ *hw.Node) {
				ep := e.sys.EPs[0]
				src := make([]byte, 64<<10)
				completed := 0
				for i := 0; i < 6; i++ {
					ep.StoreAsync(p, 1, hw.Addr{Seg: seg}, src, am.NoHandler, 0,
						func(*sim.Proc, *am.Endpoint) { completed++ })
				}
				e.wait(p, ep, 0, func() bool { return completed == 6 })
				ep.Request(p, 1, doneH)
			})
			echoServer(e, 1, &done)
		},
	},
	{
		// Every node stores 16 KiB (two 36-packet chunks, one full window) to
		// every other at once, under 2 % loss, through an adapter slowed
		// until the host outruns it: three 72-packet windows overfill the
		// shared 128-entry send FIFO, so nodes enter waits with chunks still
		// queued, with go-back-N retransmissions half injected, or owing an
		// explicit ack the full FIFO refused — work that only a later poll,
		// once the FIFO has drained, can do, and that PollWait must
		// therefore not step over. (The loss seed is one at which each of
		// the three occurs on its own; dropping any one of idleBudget's
		// checks fails this scenario, and so does a PollWait step of any
		// length but costPollEmpty's.)
		name: "all-to-all-bulk", nodes: 4, sendProc: hw.US(40), opt: am.DefaultOptions(),
		build: func(e *waitEnv) {
			(&faults.Plan{Name: "loss", Seed: 6, Rules: []faults.Rule{{Action: hw.ActDrop, Rate: 0.02}}}).Apply(e.c)
			const nn, size = 4, 16 << 10
			landed := make([]int, nn)
			bh := e.sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
				landed[ep.ID()]++
			})
			segs := make([]int, nn)
			for i, nd := range e.c.Nodes {
				segs[i] = nd.Mem.Add(make([]byte, nn*size))
			}
			for i := 0; i < nn; i++ {
				i := i
				e.c.Spawn(i, "xchg", func(p *sim.Proc, _ *hw.Node) {
					ep := e.sys.EPs[i]
					src := make([]byte, size)
					completed := 0
					for d := 1; d < nn; d++ {
						dst := (i + d) % nn
						ep.StoreAsync(p, dst, hw.Addr{Seg: segs[dst], Off: i * size}, src, bh, 0,
							func(*sim.Proc, *am.Endpoint) { completed++ })
					}
					e.wait(p, ep, 0, func() bool { return completed == nn-1 && landed[i] == nn-1 })
					ep.Drain(p, 0)
				})
			}
		},
	},
	{
		// A blackout swallows a request and everything after it for long
		// enough that the sender, waiting for the reply, goes through a
		// first probe and at least one backed-off round before traffic
		// resumes and the retransmission gets through.
		name: "blackout-probes-backoff", nodes: 2, opt: fastKeepAlive(),
		build: func(e *waitEnv) {
			(&faults.Plan{Name: "blackout", Seed: 7, Rules: []faults.Rule{
				{Action: hw.ActDrop, Rate: 1, From: hw.US(400), Until: hw.US(2500)}}}).Apply(e.c)
			replies, done := 0, false
			replyH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { replies++ })
			reqH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
				ep.Reply(p, tok, replyH, args[0])
			})
			doneH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { done = true })
			e.c.Spawn(0, "req", func(p *sim.Proc, n *hw.Node) {
				ep := e.sys.EPs[0]
				for i := 0; i < 12; i++ {
					ep.Request(p, 1, reqH, uint32(i))
					e.wait(p, ep, 0, func() bool { return replies > i })
					n.Compute(p, hw.US(60))
				}
				ep.Request(p, 1, doneH)
				ep.Drain(p, 0)
			})
			echoServer(e, 1, &done)
		},
		check: func(t *testing.T, o waitOutcome) {
			st := o.Stats[0]
			if st.Probes == 0 || st.Backoffs == 0 || st.Retransmits == 0 || st.RTTSamples == 0 {
				t.Errorf("scenario did not reach the keep-alive ladder: probes=%d backoffs=%d retransmits=%d rtt=%d",
					st.Probes, st.Backoffs, st.Retransmits, st.RTTSamples)
			}
		},
	},
	{
		// Node 1 fail-stops while idle-waiting; node 0 is then mid-wait on a
		// reply that can never come and walks the whole ladder to a death
		// declaration.
		name: "kill-waiter-and-peer", nodes: 2, opt: fastKeepAlive(),
		build: func(e *waitEnv) {
			e.c.Kill(1, hw.US(777))
			replies := 0
			replyH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { replies++ })
			reqH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
				ep.Reply(p, tok, replyH, args[0])
			})
			e.c.Spawn(0, "req", func(p *sim.Proc, n *hw.Node) {
				ep := e.sys.EPs[0]
				for i := 0; ep.PeerErr(1) == nil; i++ {
					if ep.Request(p, 1, reqH, uint32(i)) != nil {
						break
					}
					e.wait(p, ep, 0, func() bool { return replies > i || ep.PeerErr(1) != nil })
					n.Compute(p, hw.US(100))
				}
			})
			e.c.Spawn(1, "victim", func(p *sim.Proc, _ *hw.Node) {
				e.wait(p, e.sys.EPs[1], 0, func() bool { return false })
			})
		},
		check: func(t *testing.T, o waitOutcome) {
			if o.Stats[0].DeadPeers != 1 || o.Stats[0].Backoffs == 0 {
				t.Errorf("survivor: dead peers = %d, backoffs = %d; want a declaration after backoff",
					o.Stats[0].DeadPeers, o.Stats[0].Backoffs)
			}
		},
	},
	{
		// Waits bounded by a deadline that nothing else cuts short, at
		// offsets that land mid-poll, on a poll boundary, and in the past.
		name: "until-deadline", nodes: 2, opt: am.DefaultOptions(),
		build: func(e *waitEnv) {
			done := false
			doneH := e.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { done = true })
			e.c.Spawn(0, "timer", func(p *sim.Proc, _ *hw.Node) {
				ep := e.sys.EPs[0]
				for _, d := range []sim.Time{hw.US(500), 1300 * 40, 1, 0 - 5, hw.US(77.7)} {
					e.wait(p, ep, p.Now()+d, func() bool { return false })
				}
				ep.Request(p, 1, doneH)
			})
			echoServer(e, 1, &done)
		},
	},
}

// TestPollWaitMatchesPollLoop runs every scenario once with `for !cond {
// Poll }` and once with PollWait and requires the two runs to be
// indistinguishable: end time, event count, every endpoint's counters and
// channel state, and the rendered trace and metrics.
func TestPollWaitMatchesPollLoop(t *testing.T) {
	for _, sc := range waitScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := runWait(sc.nodes, sc.sendProc, sc.opt, waitByPoll, sc.build)
			got := runWait(sc.nodes, sc.sendProc, sc.opt, waitByPollWait(t), sc.build)
			if sc.check != nil {
				sc.check(t, want)
			}
			var idle int64
			for _, st := range want.Stats {
				idle += st.EmptyPolls
			}
			if idle < 500 {
				t.Errorf("only %d empty polls in the scenario; it no longer exercises idle runs", idle)
			}
			if got.End != want.End || got.Events != want.Events {
				t.Errorf("end %v after %d events with PollWait, %v after %d with the Poll loop",
					got.End, got.Events, want.End, want.Events)
			}
			for i := range want.Stats {
				if got.Stats[i] != want.Stats[i] {
					t.Errorf("node %d stats differ:\nPollWait  %+v\nPoll loop %+v", i, got.Stats[i], want.Stats[i])
				}
			}
			if !reflect.DeepEqual(got.Channels, want.Channels) {
				t.Errorf("channel state differs:\nPollWait  %+v\nPoll loop %+v", got.Channels, want.Channels)
			}
			if got.Observed != want.Observed {
				t.Errorf("trace/metrics output differs: %s", firstDiff(got.Observed, want.Observed))
			}
		})
	}
}

// firstDiff names the first line at which two renderings part.
func firstDiff(a, b string) string {
	la, lb := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\nPollWait  %s\nPoll loop %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines with PollWait, %d with the Poll loop", len(la), len(lb))
}
