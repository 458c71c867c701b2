// Stencil: a 1-D heat equation over MPI on the simulated SP.
//
// Each of four ranks owns a strip of a rod and exchanges halo cells with
// its neighbors every step using MPI_Sendrecv, with a global residual
// Allreduce every 16 steps — the canonical MPI mini-app, here running over
// MPICH-on-Active-Messages (MPI-AM) and over the MPI-F model for
// comparison.
//
// Run with:
//
//	go run ./examples/stencil
package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/mpif"
	"spam/internal/sim"
)

const (
	ranks    = 4
	cells    = 4096 // per rank
	steps    = 128
	alpha    = 0.1
	checkEvr = 16
)

func run(useMPIF bool) (seconds, finalHeat float64) {
	cluster := hw.NewCluster(hw.DefaultConfig(ranks))
	var pts []mpi.PT
	if useMPIF {
		sys := mpif.New(cluster)
		for _, c := range sys.Comms {
			pts = append(pts, c)
		}
	} else {
		sys := mpi.New(cluster, mpi.Optimized())
		for _, c := range sys.Comms {
			pts = append(pts, c)
		}
	}

	heats := make([]float64, ranks)
	for i := 0; i < ranks; i++ {
		i := i
		c := pts[i]
		cluster.Spawn(i, "stencil", func(p *sim.Proc, nd *hw.Node) {
			u := make([]float64, cells+2) // one ghost cell each side
			// A hot spot in the middle of rank 1.
			if i == 1 {
				for j := cells/2 - 50; j < cells/2+50; j++ {
					u[j] = 100
				}
			}
			buf := make([]byte, 8)
			ghost := make([]byte, 8)
			left, right := i-1, i+1

			for s := 0; s < steps; s++ {
				tag := c.NextCollTag()
				// Exchange halos (interior ranks both ways; edges one way).
				if right < ranks {
					binary.LittleEndian.PutUint64(buf, math.Float64bits(u[cells]))
					c.Sendrecv(p, buf, right, tag, ghost, right, tag-1)
					u[cells+1] = math.Float64frombits(binary.LittleEndian.Uint64(ghost))
				}
				if left >= 0 {
					binary.LittleEndian.PutUint64(buf, math.Float64bits(u[1]))
					c.Sendrecv(p, buf, left, tag-1, ghost, left, tag)
					u[0] = math.Float64frombits(binary.LittleEndian.Uint64(ghost))
				}
				// Explicit Euler update.
				prev := u[0]
				for j := 1; j <= cells; j++ {
					cur := u[j]
					u[j] = cur + alpha*(prev-2*cur+u[j+1])
					prev = cur
				}
				nd.Compute(p, sim.Time(cells*4*50)) // 4 flops/cell at 50ns

				if s%checkEvr == checkEvr-1 {
					var local float64
					for j := 1; j <= cells; j++ {
						local += u[j]
					}
					send := make([]byte, 8)
					recv := make([]byte, 8)
					binary.LittleEndian.PutUint64(send, math.Float64bits(local))
					mpi.Allreduce(p, c, send, recv, func(dst, src []byte) {
						a := math.Float64frombits(binary.LittleEndian.Uint64(dst))
						b := math.Float64frombits(binary.LittleEndian.Uint64(src))
						binary.LittleEndian.PutUint64(dst, math.Float64bits(a+b))
					})
					if i == 0 {
						heats[0] = math.Float64frombits(binary.LittleEndian.Uint64(recv))
					}
				}
			}
		})
	}
	cluster.Run()
	return cluster.Eng.Now().Seconds(), heats[0]
}

func main() {
	amSec, amHeat := run(false)
	fSec, fHeat := run(true)
	fmt.Printf("1-D heat equation, %d ranks x %d cells, %d steps\n", ranks, cells, steps)
	fmt.Printf("  MPI-AM: %7.2f ms   total heat %.6f\n", amSec*1000, amHeat)
	fmt.Printf("  MPI-F : %7.2f ms   total heat %.6f\n", fSec*1000, fHeat)
	if amHeat != fHeat {
		fmt.Fprintln(os.Stderr, "stencil: MPI-AM and MPI-F disagree on the total heat")
		os.Exit(1)
	}
	fmt.Println("  results identical across MPI implementations (conservation holds)")
}
