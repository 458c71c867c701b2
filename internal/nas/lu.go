package nas

import (
	"spam/internal/mpi"
	"spam/internal/sim"
)

// LUConfig sizes the LU kernel. Class A is 64^3 with 250 SSOR iterations;
// the scaled default keeps the full 64^3 grid (LU's messages are already
// tiny — the point of the kernel) and runs 25 iterations.
type LUConfig struct {
	N     int // cubic grid edge
	Iters int
}

// DefaultLU returns the scaled LU configuration.
func DefaultLU() LUConfig { return LUConfig{N: 64, Iters: 25} }

// LU builds the SSOR kernel on the pencil decomposition. Each iteration
// sweeps a lower-triangular wavefront (receive boundary values from the
// lower-y and lower-x neighbors, relax, send to the higher ones) followed
// by the symmetric upper-triangular sweep — the fine-grained pipeline of
// small messages that makes LU the paper's latency-sensitive NAS kernel.
func LU(cfg LUConfig) Kernel {
	return func(p *sim.Proc, env *Env) float64 {
		c := env.C
		g := newPencil(c, cfg.N)
		u, n := g.u, g.n
		lx, ly := g.ext[0], g.ext[1]
		for i := range u {
			u[i] = float64((i*2654435761)%1000)/1000.0 - 0.5
		}

		// One plane's boundary per axis: a column of ly points (axis 0) or
		// a row of lx points (axis 1), nv values each.
		bufs := [2][]byte{make([]byte, g.faceBytes(0, 1)), make([]byte, g.faceBytes(1, 1))}
		rowLen := lx * nv

		flopsPerPoint := 130.0 // jacld/blts-level work per point per sweep

		// sweep runs one wavefront in direction d (+1 lower, -1 upper):
		// each z-plane's boundaries arrive from the neighbors at -d, onto
		// the face toward them, and leave for those at +d from the face
		// toward those, the row (axis 1) before the column.
		sweep := func(tagBase, d int) {
			for zz := 0; zz < n; zz++ {
				z := zz
				if d < 0 {
					z = n - 1 - zz
				}
				tags := [2]int{tagBase - 1000 - z, tagBase - z}
				for _, axis := range [2]int{1, 0} {
					if from := g.neighbor(axis, -d); from >= 0 {
						mpi.Recv(p, c, bufs[axis], from, tags[axis])
						g.fold(bufs[axis], axis, g.boundary(axis, -d), z, z+1, 0.05)
					}
				}
				// Relax this plane (simplified SSOR update with real data
				// dependence on the received boundaries): each value adds
				// its x-1 and then its y-1 neighbor, both already relaxed,
				// to a w that starts at 0 (so a -0 neighbor reads as +0).
				var prev []float64 // row y-1; nil for y == 0
				for y := 0; y < ly; y++ {
					row := u[(z*ly+y)*rowLen:][:rowLen]
					for i := range row {
						var w float64
						if i >= nv {
							w += row[i-nv]
						}
						if prev != nil {
							w += prev[i]
						}
						row[i] = 0.9*row[i] + 0.02*w + 0.001
					}
					prev = row
				}
				env.Flops(p, float64(lx*ly)*flopsPerPoint)
				for _, axis := range [2]int{1, 0} {
					if to := g.neighbor(axis, d); to >= 0 {
						g.pack(bufs[axis], axis, g.boundary(axis, d), z, z+1)
						mpi.Send(p, c, bufs[axis], to, tags[axis])
					}
				}
			}
		}

		var norm float64
		for it := 0; it < cfg.Iters; it++ {
			base := c.NextCollTag() - 10000
			sweep(base, 1)         // lower-triangular wavefront
			sweep(base-100000, -1) // upper-triangular wavefront
			if it%5 == 4 || it == cfg.Iters-1 {
				norm = allreduceSum(p, c, g.sumSquares(41))
			}
		}
		return norm
	}
}

// procGrid2D factors P into the squarest px x py grid.
func procGrid2D(P int) (px, py int) {
	px = 1
	for f := 1; f*f <= P; f++ {
		if P%f == 0 {
			px = f
		}
	}
	return P / px, px
}
