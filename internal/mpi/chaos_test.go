package mpi_test

import (
	"testing"

	"spam/internal/faults"
	"spam/internal/faults/soak"
	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/sim"
)

// chaosRun executes prog SPMD on a fresh n-node MPI-AM cluster under plan
// and folds each rank's contribution into one checksum.
func chaosRun(n int, opt mpi.Options, plan *faults.Plan,
	prog func(p *sim.Proc, c *mpi.Comm) uint64) soak.Run {
	cluster := hw.NewCluster(hw.DefaultConfig(n))
	sys := mpi.New(cluster, opt)
	plan.Apply(cluster)
	sums := make([]uint64, n)
	for i := 0; i < n; i++ {
		c := sys.Comms[i]
		cluster.Spawn(i, "chaos", func(p *sim.Proc, nd *hw.Node) {
			sums[c.Rank()] = prog(p, c)
			c.Finalize(p, 0)
		})
	}
	cluster.Run()
	var total uint64
	for _, s := range sums {
		total = soak.Mix(total, s)
	}
	return soak.Run{Checksum: total, Elapsed: cluster.Eng.Now(), Cluster: cluster}
}

// TestChaosPt2pt shifts ring traffic across every protocol regime — tiny
// buffered, bin-sized, hybrid, pure rendezvous, multi-chunk — under each
// standard fault plan, requiring bit-identical payload checksums.
func TestChaosPt2pt(t *testing.T) {
	sizes := []int{13, 1024, 4096, 8193, 40000}
	w := func(plan *faults.Plan) soak.Run {
		return chaosRun(4, mpi.Optimized(), plan, func(p *sim.Proc, c *mpi.Comm) uint64 {
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() + c.Size() - 1) % c.Size()
			var sum uint64
			for si, size := range sizes {
				msg := make([]byte, size)
				for i := range msg {
					msg[i] = byte(i*3 + c.Rank()*17 + si)
				}
				buf := make([]byte, size)
				mpi.Sendrecv(p, c, msg, right, 100+si, buf, left, 100+si)
				sum = soak.MixBytes(sum, buf)
			}
			return sum
		})
	}
	soak.Soak(t, w, faults.StandardPlans(1001), 40)
}

// TestChaosCollectives runs Bcast, Allreduce, and Alltoall under every
// standard fault plan.
func TestChaosCollectives(t *testing.T) {
	xor := func(dst, src []byte) {
		for i := range dst {
			dst[i] ^= src[i]
		}
	}
	w := func(plan *faults.Plan) soak.Run {
		return chaosRun(4, mpi.Optimized(), plan, func(p *sim.Proc, c *mpi.Comm) uint64 {
			var sum uint64

			bc := make([]byte, 4096)
			if c.Rank() == 0 {
				for i := range bc {
					bc[i] = byte(i * 5)
				}
			}
			mpi.Bcast(p, c, bc, 0)
			sum = soak.MixBytes(sum, bc)

			mine := make([]byte, 1024)
			for i := range mine {
				mine[i] = byte(i + c.Rank())
			}
			red := make([]byte, len(mine))
			mpi.Allreduce(p, c, mine, red, xor)
			sum = soak.MixBytes(sum, red)

			const chunk = 2048
			send := make([]byte, chunk*c.Size())
			for i := range send {
				send[i] = byte(i*7 + c.Rank()*29)
			}
			recv := make([]byte, chunk*c.Size())
			c.Alltoall(p, send, recv, chunk)
			sum = soak.MixBytes(sum, recv)

			mpi.Barrier(p, c)
			return sum
		})
	}
	soak.Soak(t, w, faults.StandardPlans(2002), 40)
}
