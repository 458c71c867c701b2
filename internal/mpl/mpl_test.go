package mpl_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"spam/internal/bench"
	"spam/internal/hw"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// TestBSendBufferReusable: BSend returns once the message is in the send
// FIFO, and the buffer is then the caller's. The sender overwrites it at
// once while the receiver waits 5 ms before receiving, so the packets sit
// in its receive FIFO meanwhile; it must still get the bytes sent. The
// sizes are 4 B, a full packet (228 B), one byte more, and 32 full
// packets (7,296 B).
func TestBSendBufferReusable(t *testing.T) {
	for _, size := range []int{4, mpl.DataBytes, mpl.DataBytes + 1, 32 * mpl.DataBytes} {
		c := hw.NewCluster(hw.DefaultConfig(2))
		sys := mpl.New(c)
		msg := bytes.Repeat([]byte{1}, size)
		want := bytes.Clone(msg)
		var got []byte
		c.Spawn(0, "tx", func(p *sim.Proc, n *hw.Node) {
			sys.EPs[0].BSend(p, 1, 3, msg)
			for i := range msg {
				msg[i] = 2
			}
		})
		c.Spawn(1, "rx", func(p *sim.Proc, n *hw.Node) {
			p.Advance(hw.US(5000))
			buf := make([]byte, size)
			nb, _, _ := sys.EPs[1].Recv(p, 0, 3, buf)
			got = buf[:nb]
		})
		c.Run()
		if !bytes.Equal(got, want) {
			t.Errorf("%d B: received %d B, %d of them overwritten after BSend returned", size, len(got), bytes.Count(got, []byte{2}))
		}
	}
}

// TestCalibMPL pins the paper's MPL numbers: 88 µs round trip, ~34.6 MB/s
// asymptotic bandwidth, and a non-blocking half-power point in the
// kilobytes (reconstructed ~2.4 KB; an order of magnitude above SP AM's).
func TestCalibMPL(t *testing.T) {
	rtt := bench.MPLRoundTrip(bench.Setup{}, 20)
	if rtt < 83 || rtt > 93 {
		t.Errorf("MPL RTT = %.2fus, want 88 +/- 5", rtt)
	} else {
		t.Logf("MPL RTT = %.2fus (paper: 88.0)", rtt)
	}

	if testing.Short() {
		t.Skip("bandwidth sweep is slow")
	}
	r := bench.MPLBandwidth(bench.Setup{}, false, 1<<20, 1<<20)
	if r < 33.5 || r > 35.7 {
		t.Errorf("MPL r_inf = %.2f MB/s, want ~34.6", r)
	} else {
		t.Logf("MPL r_inf = %.2f MB/s (paper: 34.6)", r)
	}

	cur := bench.MPLBandwidthCurve(bench.Setup{}, false,
		[]int{228, 512, 1024, 2048, 3072, 4096, 8192, 16384, 65536, 1 << 20}, 1<<20)
	nh := cur.NHalf()
	if nh < 1800 || nh > 4200 {
		t.Errorf("MPL pipelined n_1/2 = %.0f, want 1.8-4.2 KB (an order of magnitude above AM's ~260 B)", nh)
	} else {
		t.Logf("MPL pipelined n_1/2 = %.0f bytes (~%.0fx SP AM's)", nh, nh/308)
	}

	blk := bench.MPLBandwidthCurve(bench.Setup{}, true,
		[]int{512, 2048, 4096, 8192, 16384, 65536, 1 << 20}, 1<<20)
	t.Logf("MPL blocking n_1/2 = %.0f bytes (paper: 'greater than' the pipelined point)", blk.NHalf())
	if blk.NHalf() <= nh {
		t.Errorf("blocking n_1/2 (%.0f) should exceed pipelined (%.0f)", blk.NHalf(), nh)
	}
}

// TestMPLRoundTripAllocs pins MPL's heap allocations per one-word
// BSend/Recv round trip and per 64 KiB Send+DrainSends/Recv message, where
// every receive is posted before its message lands. The only allocation is
// each receive's RecvHandle: a queued send is a value in its peer's ring, an
// arriving message fills its sender's slot in place, and an early-arrival
// buffer is made only for a message no receive was waiting for. The figure
// is the slope of MemStats.Mallocs between two message counts, so warm-up
// growth drops out; a forced collection before each read keeps the
// runtime's one-time collector set-up out of the window, and printed to one
// decimal the figure tolerates four stray runtime allocations in the
// 100-message window.
func TestMPLRoundTripAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	word, block := make([]byte, 4), make([]byte, 64<<10)
	for _, tc := range []struct {
		name     string
		from, to int // messages counted between the two reads
		want     string
		tx, rx   func(p *sim.Proc, ep *mpl.Endpoint)
	}{
		{"word round trip", 200, 1200, "2.0", func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.BSend(p, 1, 0, word)
			ep.Recv(p, 1, 0, word)
		}, func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.Recv(p, 0, 0, word)
			ep.BSend(p, 0, 0, word)
		}},
		{"64KiB message", 20, 120, "1.0", func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.Send(p, 1, 0, block)
			ep.DrainSends(p)
		}, func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.Recv(p, 0, 0, block)
		}},
	} {
		c := hw.NewCluster(hw.DefaultConfig(2))
		sys := mpl.New(c)
		var at [2]uint64
		c.Spawn(0, "tx", func(p *sim.Proc, n *hw.Node) {
			for i := 1; i <= tc.to; i++ {
				tc.tx(p, sys.EPs[0])
				if i == tc.from || i == tc.to {
					var ms runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&ms)
					at[i/tc.to] = ms.Mallocs
				}
			}
		})
		c.Spawn(1, "rx", func(p *sim.Proc, n *hw.Node) {
			for i := 1; i <= tc.to; i++ {
				tc.rx(p, sys.EPs[1])
			}
		})
		c.Run()
		n := tc.to - tc.from
		if got := fmt.Sprintf("%.1f", float64(at[1]-at[0])/float64(n)); got != tc.want {
			t.Errorf("%s: %s allocations each, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkMPLSendRecv is the host-time row of the MPL layer: a one-word
// BSend/Recv round trip between two nodes, and a 64 KiB Send + DrainSends
// streamed to a node that Recvs each message. The timer runs from the end
// of a warm-up until both sides are done. events/op is deterministic for a
// given b.N: a host-time change with it unchanged is a change in the cost
// per event, not in what the simulation does.
func BenchmarkMPLSendRecv(b *testing.B) {
	word := make([]byte, 4)
	block := make([]byte, 64<<10)
	for _, bc := range []struct {
		name   string
		tx, rx func(p *sim.Proc, ep *mpl.Endpoint)
	}{
		{"word", func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.BSend(p, 1, 0, word)
			ep.Recv(p, 1, 0, word)
		}, func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.Recv(p, 0, 0, word)
			ep.BSend(p, 0, 0, word)
		}},
		{"64KiB", func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.Send(p, 1, 0, block)
			ep.DrainSends(p)
		}, func(p *sim.Proc, ep *mpl.Endpoint) {
			ep.Recv(p, 0, 0, block)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const warm = 16
			c := hw.NewCluster(hw.DefaultConfig(2))
			sys := mpl.New(c)
			var events int64
			left := 2
			done := func() {
				if left--; left == 0 {
					b.StopTimer()
					events = c.Eng.EventsRun - events
				}
			}
			b.ReportAllocs()
			c.Spawn(0, "tx", func(p *sim.Proc, n *hw.Node) {
				for i := 0; i < warm+b.N; i++ {
					if i == warm {
						b.ResetTimer()
						events = c.Eng.EventsRun
					}
					bc.tx(p, sys.EPs[0])
				}
				done()
			})
			c.Spawn(1, "rx", func(p *sim.Proc, n *hw.Node) {
				for i := 0; i < warm+b.N; i++ {
					bc.rx(p, sys.EPs[1])
				}
				done()
			})
			c.Run()
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
