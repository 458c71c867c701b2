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

// LU builds the SSOR kernel: a 2-D (px x py) pencil decomposition of the
// x-y plane with the full z extent local. Each iteration sweeps a lower-
// triangular wavefront (receive boundary values from north and west,
// relax, send south and east) followed by the symmetric upper-triangular
// sweep — the fine-grained pipeline of small messages that makes LU the
// paper's latency-sensitive NAS kernel.
func LU(cfg LUConfig) Kernel {
	return func(p *sim.Proc, env *Env) float64 {
		c := env.C
		P := c.Size()
		px, py := procGrid2D(P)
		me := c.Rank()
		mx, my := me%px, me/px
		n := cfg.N
		lx, ly := n/px, n/py

		// Five solution variables per point, pencil-local (lx x ly x n).
		const nv = 5
		u := make([]float64, lx*ly*n*nv)
		idx := func(x, y, z, v int) int { return ((z*ly+y)*lx+x)*nv + v }
		for i := range u {
			u[i] = float64((i*2654435761)%1000)/1000.0 - 0.5
		}

		north := my > 0 // neighbor with smaller y
		west := mx > 0  // neighbor with smaller x
		south := my < py-1
		east := mx < px-1
		rankOf := func(ax, ay int) int { return ay*px + ax }

		// Per-plane boundary buffers: a row of lx points or a column of
		// ly points, nv values each.
		rowB := make([]byte, lx*nv*8)
		colB := make([]byte, ly*nv*8)
		rowF := make([]float64, lx*nv)
		colF := make([]float64, ly*nv)

		flopsPerPoint := 130.0 // jacld/blts-level work per point per sweep

		sweep := func(tagBase int, lower bool) {
			for zz := 0; zz < n; zz++ {
				z := zz
				if !lower {
					z = n - 1 - zz
				}
				// Receive incoming pipeline boundaries.
				recvN, recvW := north, west
				sendS, sendE := south, east
				if !lower {
					recvN, recvW = south, east
					sendS, sendE = north, west
				}
				if recvN {
					ny := my - 1
					if !lower {
						ny = my + 1
					}
					mpi.Recv(p, c, rowB, rankOf(mx, ny), tagBase-z)
					getF64s(rowF, rowB)
					for x := 0; x < lx; x++ {
						for v := 0; v < nv; v++ {
							u[idx(x, 0, z, v)] += 0.05 * rowF[x*nv+v]
						}
					}
				}
				if recvW {
					nx := mx - 1
					if !lower {
						nx = mx + 1
					}
					mpi.Recv(p, c, colB, rankOf(nx, my), tagBase-1000-z)
					getF64s(colF, colB)
					for y := 0; y < ly; y++ {
						for v := 0; v < nv; v++ {
							u[idx(0, y, z, v)] += 0.05 * colF[y*nv+v]
						}
					}
				}
				// Relax this plane (simplified SSOR update with real data
				// dependence on the received boundaries).
				for y := 0; y < ly; y++ {
					for x := 0; x < lx; x++ {
						for v := 0; v < nv; v++ {
							i := idx(x, y, z, v)
							var w float64
							if x > 0 {
								w += u[idx(x-1, y, z, v)]
							}
							if y > 0 {
								w += u[idx(x, y-1, z, v)]
							}
							u[i] = 0.9*u[i] + 0.02*w + 0.001
						}
					}
				}
				env.Flops(p, float64(lx*ly)*flopsPerPoint)
				// Send outgoing boundaries.
				if sendS {
					ny := my + 1
					if !lower {
						ny = my - 1
					}
					for x := 0; x < lx; x++ {
						for v := 0; v < nv; v++ {
							rowF[x*nv+v] = u[idx(x, ly-1, z, v)]
						}
					}
					putF64s(rowB, rowF)
					mpi.Send(p, c, rowB, rankOf(mx, ny), tagBase-z)
				}
				if sendE {
					nx := mx + 1
					if !lower {
						nx = mx - 1
					}
					for y := 0; y < ly; y++ {
						for v := 0; v < nv; v++ {
							colF[y*nv+v] = u[idx(lx-1, y, z, v)]
						}
					}
					putF64s(colB, colF)
					mpi.Send(p, c, colB, rankOf(nx, my), tagBase-1000-z)
				}
			}
		}

		var norm float64
		for it := 0; it < cfg.Iters; it++ {
			base := c.NextCollTag() - 10000
			sweep(base, true)         // lower-triangular wavefront
			sweep(base-100000, false) // upper-triangular wavefront
			if it%5 == 4 || it == cfg.Iters-1 {
				var local float64
				for i := 0; i < len(u); i += 41 {
					local += u[i] * u[i]
				}
				norm = allreduceSum(p, c, local)
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
