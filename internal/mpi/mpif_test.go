package mpi_test

import (
	"bytes"
	"errors"
	"testing"

	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/sim"
)

func runMPIF(n int, wide bool, prog func(p *sim.Proc, c *mpi.FComm)) {
	cfg := hw.DefaultConfig(n)
	if wide {
		cfg = hw.WideConfig(n)
	}
	cluster := hw.NewCluster(cfg)
	sys := mpi.NewF(cluster)
	for i := 0; i < n; i++ {
		c := sys.Comms[i]
		cluster.Spawn(i, "mpif", func(p *sim.Proc, nd *hw.Node) { prog(p, c) })
	}
	cluster.Run()
}

func TestEagerRendezvousDip(t *testing.T) {
	// MPI-F's signature artifact: bandwidth just above the 4KB switch is
	// LOWER than just below it (§4.2: "the bandwidth achieved using
	// messages of 5 Kbytes is actually lower than with 4 Kbyte messages").
	bw := func(size int) float64 {
		var mbps float64
		runMPIF(2, false, func(p *sim.Proc, c *mpi.FComm) {
			const iters = 30
			msg := make([]byte, size)
			buf := make([]byte, size)
			if c.Rank() == 0 {
				mpi.Send(p, c, msg, 1, 1)
				mpi.Recv(p, c, buf, 1, 2) // sync
				t0 := p.Now()
				for i := 0; i < iters; i++ {
					mpi.Send(p, c, msg, 1, 1)
				}
				mpi.Recv(p, c, buf, 1, 2)
				mbps = float64(size*iters) / 1e6 / (p.Now() - t0).Seconds()
			} else {
				for i := 0; i < iters+1; i++ {
					mpi.Recv(p, c, buf, 0, 1)
					if i == 0 || i == iters {
						mpi.Send(p, c, []byte{}, 0, 2)
					}
				}
			}
		})
		return mbps
	}
	below := bw(4096)
	above := bw(5000)
	if above >= below {
		t.Fatalf("no rendezvous dip: %.2f MB/s at 4096 vs %.2f MB/s at 5000", below, above)
	}
	t.Logf("MPI-F switch dip: %.2f MB/s at 4KB -> %.2f MB/s at 5KB", below, above)
}

func TestWideNodesTunedFaster(t *testing.T) {
	lat := func(wide bool) float64 {
		var us float64
		runMPIF(2, wide, func(p *sim.Proc, c *mpi.FComm) {
			msg := make([]byte, 8)
			buf := make([]byte, 8)
			if c.Rank() == 0 {
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
	thin, wide := lat(false), lat(true)
	if wide >= thin {
		t.Fatalf("MPI-F should be faster on wide nodes: thin %.1fus, wide %.1fus", thin, wide)
	}
	t.Logf("MPI-F small-message per-hop: thin %.1fus, wide %.1fus", thin, wide)
}

// TestTimedOutReceiveIsDeregistered: a receive that fails on the deadline,
// alone or as the second half of a Sendrecv whose send times out, must not
// stay posted. Rank 1 sends tag 5 only after rank 0 gave up, and rank 0's
// next receive for it must get the message, not an abandoned buffer.
func TestTimedOutReceiveIsDeregistered(t *testing.T) {
	ops := []struct {
		name   string
		giveUp func(p *sim.Proc, c mpi.PT, buf []byte) error
	}{
		{"Recv", func(p *sim.Proc, c mpi.PT, buf []byte) error {
			_, err := mpi.Recv(p, c, buf, 1, 5)
			return err
		}},
		{"Sendrecv", func(p *sim.Proc, c mpi.PT, buf []byte) error {
			// A rendezvous-sized send rank 1 never receives: it times out first.
			_, err := mpi.Sendrecv(p, c, make([]byte, 64<<10), 1, 9, buf, 1, 5)
			return err
		}},
	}
	msg := pattern(256, 3)
	for _, st := range stacks {
		for _, op := range ops {
			t.Run(st.name+"/"+op.name, func(t *testing.T) {
				cluster := hw.NewCluster(hw.DefaultConfig(2))
				pts := st.pts(cluster)
				var first, second error
				got := make([]byte, len(msg))
				cluster.Spawn(0, "rx", func(p *sim.Proc, n *hw.Node) {
					c := pts[0]
					c.SetDeadline(p.Now() + hw.US(100))
					first = op.giveUp(p, c, make([]byte, len(msg)))
					c.SetDeadline(p.Now() + hw.US(5000))
					_, second = mpi.Recv(p, c, got, 1, 5)
				})
				cluster.Spawn(1, "tx", func(p *sim.Proc, n *hw.Node) {
					p.Advance(hw.US(500))
					mpi.Send(p, pts[1], msg, 0, 5)
				})
				cluster.Run()
				var e *mpi.Error
				if !errors.As(first, &e) || e.Code != mpi.ErrTimeout {
					t.Fatalf("first %s returned %v, want a timeout", op.name, first)
				}
				if second != nil || !bytes.Equal(got, msg) {
					t.Fatalf("next Recv returned %v with %q, want the message", second, got[:8])
				}
			})
		}
	}
}
