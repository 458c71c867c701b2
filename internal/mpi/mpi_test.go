package mpi_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/sim"
)

func runMPI(n int, opt mpi.Options, prog func(p *sim.Proc, c *mpi.Comm)) *hw.Cluster {
	cluster := hw.NewCluster(hw.DefaultConfig(n))
	sys := mpi.New(cluster, opt)
	for i := 0; i < n; i++ {
		c := sys.Comms[i]
		cluster.Spawn(i, "mpi", func(p *sim.Proc, nd *hw.Node) { prog(p, c) })
	}
	cluster.Run()
	return cluster
}

func bothConfigs(t *testing.T, fn func(t *testing.T, opt mpi.Options)) {
	t.Helper()
	t.Run("unoptimized", func(t *testing.T) { fn(t, mpi.Unoptimized()) })
	t.Run("optimized", func(t *testing.T) { fn(t, mpi.Optimized()) })
}

// stacks are the three MPI stacks the shared tests run over: MPI-AM in
// both configurations, and MPI-F.
var stacks = []struct {
	name string
	pts  func(c *hw.Cluster) []mpi.PT
}{
	{"unoptimized", func(c *hw.Cluster) []mpi.PT { return ptsOf(mpi.New(c, mpi.Unoptimized()).Comms) }},
	{"optimized", func(c *hw.Cluster) []mpi.PT { return ptsOf(mpi.New(c, mpi.Optimized()).Comms) }},
	{"MPI-F", func(c *hw.Cluster) []mpi.PT { return ptsOf(mpi.NewF(c).Comms) }},
}

func ptsOf[C mpi.PT](comms []C) []mpi.PT {
	pts := make([]mpi.PT, len(comms))
	for i, c := range comms {
		pts[i] = c
	}
	return pts
}

// eachStack runs fn once per stack, as a subtest named after the stack.
func eachStack(t *testing.T, fn func(t *testing.T, mk func(*hw.Cluster) []mpi.PT)) {
	t.Helper()
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) { fn(t, st.pts) })
	}
}

// runPT runs prog SPMD on a fresh n-node cluster over the stack mk builds.
func runPT(n int, mk func(*hw.Cluster) []mpi.PT, prog func(p *sim.Proc, c mpi.PT)) {
	cluster := hw.NewCluster(hw.DefaultConfig(n))
	for i, c := range mk(cluster) {
		cluster.Spawn(i, "mpi", func(p *sim.Proc, nd *hw.Node) { prog(p, c) })
	}
	cluster.Run()
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestSendRecvAcrossProtocolSizes(t *testing.T) {
	// Sizes straddling every protocol boundary: tiny buffered or eager,
	// bin-sized, MPI-F's 4 KB eager switch, first-fit sized, hybrid region,
	// pure rendezvous, multi-chunk.
	sizes := []int{0, 1, 13, 64, 1024, 1500, 4096, 4097, 8192, 8193, 16384, 16400, 40000, 100000, 200000}
	eachStack(t, func(t *testing.T, mk func(*hw.Cluster) []mpi.PT) {
		for _, size := range sizes {
			t.Run(fmt.Sprint(size), func(t *testing.T) {
				msg := pattern(size, 3)
				var got []byte
				var st mpi.Status
				runPT(2, mk, func(p *sim.Proc, c mpi.PT) {
					if c.Rank() == 0 {
						mpi.Send(p, c, msg, 1, 42)
					} else {
						buf := make([]byte, size)
						st, _ = mpi.Recv(p, c, buf, 0, 42)
						got = buf
					}
				})
				if !bytes.Equal(got, msg) {
					t.Fatalf("size %d corrupted", size)
				}
				if st.Size != size || st.Source != 0 || st.Tag != 42 {
					t.Fatalf("status %+v", st)
				}
			})
		}
	})
}

// TestOutOfRangeRankPanics: a send to a rank outside [0, Size), or a
// receive from one other than AnySource, is a programming error every
// stack reports at the call with the same message.
func TestOutOfRangeRankPanics(t *testing.T) {
	ops := []struct {
		name, want string
		call       func(p *sim.Proc, c mpi.PT)
	}{
		{"Isend", "mpi: bad destination rank 5", func(p *sim.Proc, c mpi.PT) { c.Isend(p, nil, 5, 1) }},
		{"Irecv", "mpi: bad source rank 5", func(p *sim.Proc, c mpi.PT) { c.Irecv(p, nil, 5, 1) }},
	}
	for _, st := range stacks {
		for _, op := range ops {
			t.Run(st.name+"/"+op.name, func(t *testing.T) {
				var got any
				runPT(2, st.pts, func(p *sim.Proc, c mpi.PT) {
					if c.Rank() != 0 {
						return
					}
					defer func() { got = recover() }()
					op.call(p, c)
				})
				if fmt.Sprint(got) != op.want {
					t.Fatalf("%s to rank 5 of 2 panicked with %v, want %q", op.name, got, op.want)
				}
			})
		}
	}
}

func TestBufferRecyclingManyMessages(t *testing.T) {
	// Far more traffic than the 16KB buffered region holds: the free
	// protocol must recycle space indefinitely.
	bothConfigs(t, func(t *testing.T, opt mpi.Options) {
		const n = 400
		got := 0
		runMPI(2, opt, func(p *sim.Proc, c *mpi.Comm) {
			if c.Rank() == 0 {
				msg := pattern(900, 1)
				for i := 0; i < n; i++ {
					mpi.Send(p, c, msg, 1, 1)
				}
			} else {
				buf := make([]byte, 900)
				for i := 0; i < n; i++ {
					mpi.Recv(p, c, buf, 0, 1)
					got++
				}
			}
		})
		if got != n {
			t.Fatalf("received %d of %d", got, n)
		}
	})
}

func TestNonblockingOverlap(t *testing.T) {
	bothConfigs(t, func(t *testing.T, opt mpi.Options) {
		ok := false
		runMPI(2, opt, func(p *sim.Proc, c *mpi.Comm) {
			if c.Rank() == 0 {
				a := c.Isend(p, pattern(30000, 2), 1, 1)
				b := c.Isend(p, pattern(100, 3), 1, 2)
				c.Wait(p, a)
				c.Wait(p, b)
			} else {
				big := make([]byte, 30000)
				small := make([]byte, 100)
				ra := c.Irecv(p, big, 0, 1)
				rb := c.Irecv(p, small, 0, 2)
				c.Wait(p, rb)
				c.Wait(p, ra)
				ok = bytes.Equal(big, pattern(30000, 2)) && bytes.Equal(small, pattern(100, 3))
			}
		})
		if !ok {
			t.Fatal("nonblocking transfers corrupted")
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	bothConfigs(t, func(t *testing.T, opt mpi.Options) {
		const P = 4
		vals := make([]uint32, P)
		runMPI(P, opt, func(p *sim.Proc, c *mpi.Comm) {
			me := c.Rank()
			out := make([]byte, 4)
			in := make([]byte, 4)
			binary.LittleEndian.PutUint32(out, uint32(me)*10)
			mpi.Sendrecv(p, c, out, (me+1)%P, 9, in, (me+P-1)%P, 9)
			vals[me] = binary.LittleEndian.Uint32(in)
		})
		for me := 0; me < P; me++ {
			want := uint32((me+P-1)%P) * 10
			if vals[me] != want {
				t.Fatalf("rank %d got %d, want %d", me, vals[me], want)
			}
		}
	})
}

func TestHybridAvoidsDiscontinuity(t *testing.T) {
	// Optimized MPI-AM should not be slower at just-past-the-switch sizes
	// than at just-below sizes; unoptimized (16K switch, pure rendezvous)
	// may be. This reproduces the Figure-7 claim qualitatively.
	latency := func(opt mpi.Options, size int) float64 {
		var us float64
		runMPI(2, opt, func(p *sim.Proc, c *mpi.Comm) {
			msg := make([]byte, size)
			buf := make([]byte, size)
			if c.Rank() == 0 {
				// Warm, then measure 10 round trips.
				mpi.Send(p, c, msg, 1, 1)
				mpi.Recv(p, c, buf, 1, 1)
				t0 := p.Now()
				for i := 0; i < 10; i++ {
					mpi.Send(p, c, msg, 1, 1)
					mpi.Recv(p, c, buf, 1, 1)
				}
				us = (p.Now() - t0).Microseconds() / 20
			} else {
				for i := 0; i < 11; i++ {
					mpi.Recv(p, c, buf, 0, 1)
					mpi.Send(p, c, msg, 0, 1)
				}
			}
		})
		return us
	}
	opt := mpi.Optimized()
	below := latency(opt, 8000) // just below the 8K switch
	above := latency(opt, 8600) // just above
	// Crossing the protocol switch must not cost anywhere near a full
	// rendezvous round trip; the hybrid may even be slightly FASTER per
	// message (Figure 7: it avoids the buffered protocol's double copy).
	if above-below > 60 {
		t.Fatalf("hybrid discontinuity too large: %.1fus -> %.1fus", below, above)
	}
	if below-above > 120 {
		t.Fatalf("implausible gap: %.1fus at 8000B vs %.1fus at 8600B", below, above)
	}
	t.Logf("per-message time across the 8K switch: %.1fus -> %.1fus", below, above)
}

// TestShortBufferTruncates: a receive buffer shorter than its message fails
// Wait with ErrTruncate on every stack, posted or unexpected, in every
// protocol: buffered or eager (8 and 100 B), MPI-AM's buffered and hybrid
// sizes and MPI-F's rendezvous (12,000 B, once into a buffer shorter than
// optimized MPI-AM's 4 KB hybrid prefix), and pure rendezvous (50,000 B).
// The status names the sender, the tag and the size sent; the message is
// consumed whole, so the sender completes with no deadline armed, and the
// next message on the same (source, tag) arrives intact.
func TestShortBufferTruncates(t *testing.T) {
	cases := []struct{ msg, buf int }{{8, 0}, {100, 50}, {12000, 6000}, {12000, 2000}, {50000, 25000}}
	eachStack(t, func(t *testing.T, mk func(*hw.Cluster) []mpi.PT) {
		for _, tc := range cases {
			for _, unexpected := range []bool{false, true} {
				name := fmt.Sprintf("%d-into-%d/posted", tc.msg, tc.buf)
				if unexpected {
					name = fmt.Sprintf("%d-into-%d/unexpected", tc.msg, tc.buf)
				}
				t.Run(name, func(t *testing.T) {
					var sendErr, recvErr error
					sent := false
					var st mpi.Status
					next := make([]byte, tc.buf)
					runPT(2, mk, func(p *sim.Proc, c mpi.PT) {
						if c.Rank() == 0 {
							sendErr = mpi.Send(p, c, pattern(tc.msg, 5), 1, 4)
							sent = true
							mpi.Send(p, c, pattern(tc.buf, 6), 1, 4)
							return
						}
						if unexpected {
							p.Advance(hw.US(3000))
						}
						st, recvErr = mpi.Recv(p, c, make([]byte, tc.buf), 0, 4)
						mpi.Recv(p, c, next, 0, 4)
					})
					var me *mpi.Error
					if !errors.As(recvErr, &me) || me.Code != mpi.ErrTruncate || me.Rank != 1 || me.Peer != 0 {
						t.Errorf("Recv error = %v, want ErrTruncate at rank 1 from peer 0", recvErr)
					}
					if st != (mpi.Status{Source: 0, Tag: 4, Size: tc.msg}) {
						t.Errorf("status %+v, want source 0, tag 4, size %d", st, tc.msg)
					}
					if !sent || sendErr != nil {
						t.Errorf("sender returned %v (completed %v), want nil", sendErr, sent)
					}
					if !bytes.Equal(next, pattern(tc.buf, 6)) {
						t.Error("the message after the truncated one arrived corrupted")
					}
				})
			}
		}
	})
}

// TestPostedRoundTripAllocs pins optimized MPI-AM's heap allocations per
// blocking round trip at a buffered (100 B) and a hybrid rendezvous
// (50,000 B) size, where every receive is posted before its message lands.
// Per send: the Request, the store buffer and the store's completion
// closure (the rendezvous remainder's closure standing in for the
// buffered one); per receive: the Request. A matched message is delivered
// from the handler's stack and heap-copied only when it is parked as
// unexpected. The figure is the slope of MemStats.Mallocs between round
// trips 200 and 1,200, so warm-up growth drops out. A forced collection
// before each read keeps the runtime's one-time collector set-up out of the
// window, and printed to two decimals the figure tolerates four stray
// runtime allocations in it.
func TestPostedRoundTripAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, size := range []int{100, 50000} {
		var at [2]uint64
		runMPI(2, mpi.Optimized(), func(p *sim.Proc, c *mpi.Comm) {
			msg, buf := make([]byte, size), make([]byte, size)
			peer := 1 - c.Rank()
			for i := 1; i <= 1200; i++ {
				if c.Rank() == 0 {
					mpi.Send(p, c, msg, peer, 1)
					mpi.Recv(p, c, buf, peer, 1)
				} else {
					mpi.Recv(p, c, buf, peer, 1)
					mpi.Send(p, c, msg, peer, 1)
				}
				if c.Rank() == 0 && (i == 200 || i == 1200) {
					var ms runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&ms)
					at[i/1000] = ms.Mallocs
				}
			}
		})
		if got := fmt.Sprintf("%.2f", float64(at[1]-at[0])/1000); got != "8.00" {
			t.Errorf("%d B: %s allocations per round trip, want 8.00", size, got)
		}
	}
}

// BenchmarkMPIPingPong is the host-time row of the MPI layer: a blocking
// Send/Recv round trip between two ranks on optimized MPI-AM and on MPI-F,
// at a buffered/eager size (100 B) and a rendezvous size (50,000 B). The
// timer runs from the end of a warm-up until both ranks are done. events/op
// is deterministic for a given b.N: a host-time change with it unchanged is
// a change in the cost per event, not in what the simulation does.
func BenchmarkMPIPingPong(b *testing.B) {
	for _, st := range []struct {
		name string
		pts  func(c *hw.Cluster) []mpi.PT
	}{
		{"MPI-AM", func(c *hw.Cluster) []mpi.PT { return ptsOf(mpi.New(c, mpi.Optimized()).Comms) }},
		{"MPI-F", func(c *hw.Cluster) []mpi.PT { return ptsOf(mpi.NewF(c).Comms) }},
	} {
		for _, size := range []int{100, 50000} {
			b.Run(fmt.Sprintf("%s/%dB", st.name, size), func(b *testing.B) {
				const warm = 16
				c := hw.NewCluster(hw.DefaultConfig(2))
				var events int64
				left := 2
				b.ReportAllocs()
				for i, pt := range st.pts(c) {
					c.Spawn(i, "mpi", func(p *sim.Proc, nd *hw.Node) {
						msg, buf := make([]byte, size), make([]byte, size)
						for j := 0; j < warm+b.N; j++ {
							if i == 0 && j == warm {
								b.ResetTimer()
								events = c.Eng.EventsRun
							}
							if i == 0 {
								mpi.Send(p, pt, msg, 1, 0)
								mpi.Recv(p, pt, buf, 1, 0)
							} else {
								mpi.Recv(p, pt, buf, 0, 0)
								mpi.Send(p, pt, msg, 0, 0)
							}
						}
						if left--; left == 0 {
							b.StopTimer()
							events = c.Eng.EventsRun - events
						}
					})
				}
				c.Run()
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			})
		}
	}
}
