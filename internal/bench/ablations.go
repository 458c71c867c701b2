package bench

import (
	"fmt"
	"io"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// ablated is the protocol of one DESIGN §6 ablation: the paper's options
// with one changed. The one-way rows run on the shared drivers (Bandwidth,
// PingPong), the same loops Table 3 and Figure 3 are measured with.
func ablated(change func(o *am.Options)) *am.Options {
	o := am.DefaultOptions()
	change(&o)
	return &o
}

// Exchange runs a bidirectional store exchange: both nodes stream total
// bytes at each other in size-byte asynchronous stores at once, the regime
// where ack policy matters because neither window has a reverse data packet
// to ride. It returns the aggregate delivered MB/s.
func Exchange(s Setup, size, total int) (mbps float64, r Ran) {
	c, sys := s.am(2)
	ops := total / size
	segs := [2]int{
		c.Nodes[0].Mem.Add(make([]byte, size)),
		c.Nodes[1].Mem.Add(make([]byte, size)),
	}
	doneCnt := 0
	var end sim.Time
	for i := 0; i < 2; i++ {
		i := i
		c.Spawn(i, "xchg", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[i]
			src := make([]byte, size)
			completed := 0
			for k := 0; k < ops; k++ {
				ep.StoreAsync(p, 1-i, hw.Addr{Seg: segs[1-i]}, src, am.NoHandler, 0,
					func(q *sim.Proc, e *am.Endpoint) { completed++ })
			}
			for completed < ops {
				ep.Poll(p)
			}
			doneCnt++
			for doneCnt < 2 { // bumped by the other proc, not by a poll: plain Poll
				ep.Poll(p)
			}
			end = p.Now()
		})
	}
	c.Run()
	return float64(2*ops*size) / 1e6 / end.Seconds(), ran(c, sys)
}

// AblationTable prices the design choices DESIGN.md §6 lists, one row per
// variant: the figure the choice is judged by and, where the choice is
// about acknowledgement traffic, the explicit acks both endpoints sent.
// Rows are independent runs, so they fan across s's sweep workers.
func AblationTable(w io.Writer, s Setup) {
	const (
		bulk, bulkTotal   = 8064, 1 << 19 // one full chunk per store: window and ack rows
		small, smallTotal = 1024, 1 << 18 // where a per-pop MicroChannel access shows
	)
	window := func(wnd int) *am.Options {
		return ablated(func(o *am.Options) { o.WndRequest, o.WndReply = wnd, wnd+4 })
	}
	perPacket := ablated(func(o *am.Options) { o.AckPerChunk = false })
	explicitOnly := ablated(func(o *am.Options) { o.PiggybackAcks = false })
	eagerPop := ablated(func(o *am.Options) { o.LazyPop = false })
	mover := func(n, total int) func(Setup) (float64, Ran) {
		return func(s Setup) (float64, Ran) { return Bandwidth(s, AsyncStore, n, total) }
	}
	exchange := func(s Setup) (float64, Ran) { return Exchange(s, bulk, bulkTotal) }
	pingPong := func(s Setup) (float64, Ran) { return PingPong(s, 1, 0, 200) }
	hop := func(impl MPIImpl) func(Setup) (float64, Ran) {
		return func(s Setup) (float64, Ran) { return MPIRingLatency(s, impl, 64), Ran{} }
	}
	prefix := func(kb int) func(Setup) (float64, Ran) {
		return func(s Setup) (float64, Ran) { return MPIHybridPrefixBandwidth(s, kb<<10, 12<<10, 1<<19), Ran{} }
	}
	rows := []struct {
		choice, variant, unit string
		acks                  bool        // the choice is about ack traffic: print Ran.Stats.AcksSent
		opt                   *am.Options // the SP AM protocol the row runs; nil = the paper's
		run                   func(Setup) (float64, Ran)
	}{
		{"request window", "36 packets", "MB/s", false, window(36), mover(bulk, bulkTotal)},
		{"request window", "72 packets", "MB/s", false, window(72), mover(bulk, bulkTotal)},
		{"request window", "144 packets", "MB/s", false, window(144), mover(bulk, bulkTotal)},
		{"bulk ack policy", "one per chunk", "MB/s", true, nil, exchange},
		{"bulk ack policy", "one per packet", "MB/s", true, perPacket, exchange},
		{"piggybacked acks", "on", "us/rtt", true, nil, pingPong},
		{"piggybacked acks", "off", "us/rtt", true, explicitOnly, pingPong},
		{"receive-FIFO pop", "lazy", "MB/s", false, nil, mover(small, smallTotal)},
		{"receive-FIFO pop", "eager", "MB/s", false, eagerPop, mover(small, smallTotal)},
		{"MPI-AM allocator", "binned", "us/hop", false, nil, hop(MPIAMOpt)},
		{"MPI-AM allocator", "first-fit", "us/hop", false, nil, hop(MPIAMUnopt)},
		{"hybrid prefix", "0 KB", "MB/s", false, nil, prefix(0)},
		{"hybrid prefix", "1 KB", "MB/s", false, nil, prefix(1)},
		{"hybrid prefix", "4 KB", "MB/s", false, nil, prefix(4)},
		{"hybrid prefix", "8 KB", "MB/s", false, nil, prefix(8)},
	}
	type cell struct {
		figure float64
		acks   int64
	}
	cells := Sweep(s, len(rows), func(s Setup, i int) cell {
		s.Options = rows[i].opt
		f, r := rows[i].run(s)
		return cell{f, r.Stats.AcksSent}
	})
	fmt.Fprintln(w, "# ablations of the SP AM and MPI-AM design choices (DESIGN.md section 6): the paper's machine, one choice changed per row")
	fmt.Fprintf(w, "# window, ack policy: %d-byte async stores, %d bytes per sender (ack policy: both nodes send at once);\n", bulk, bulkTotal)
	fmt.Fprintf(w, "# piggybacking: 200 one-word round trips; pop: %d-byte async stores; allocator: 64-byte ring hop; prefix: 12 KB messages\n", small)
	fmt.Fprintf(w, "%-18s %-16s %8s %-7s %6s\n", "choice", "variant", "figure", "unit", "acks")
	for i, r := range rows {
		acks := "-"
		if r.acks {
			acks = fmt.Sprint(cells[i].acks)
		}
		fmt.Fprintf(w, "%-18s %-16s %8.2f %-7s %6s\n", r.choice, r.variant, cells[i].figure, r.unit, acks)
	}
}
