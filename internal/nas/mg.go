package nas

import (
	"spam/internal/mpi"
	"spam/internal/sim"
)

// MGConfig sizes the MG kernel. Class A is 256^3 with 4 V-cycle
// iterations; the scaled default is 128^3 with 4 iterations. The grid is
// slab-decomposed in z; distributed levels exchange boundary planes with
// both neighbors around every smoothing step, and levels too coarse to
// distribute are gathered to rank 0, solved, and scattered back.
type MGConfig struct {
	N      int // cubic grid edge (power of two)
	Iters  int // V-cycles
	Levels int // distributed levels (coarser ones solved at rank 0)
}

// DefaultMG returns the scaled MG configuration.
func DefaultMG() MGConfig { return MGConfig{N: 128, Iters: 4, Levels: 3} }

// mgLevel is one slab-decomposed grid level.
type mgLevel struct {
	n  int       // global edge
	lz int       // local planes
	u  []float64 // local slab with one ghost plane each side: (lz+2)*n*n
	r  []float64
}

func (l *mgLevel) idx(z, y, x int) int { return (z*l.n+y)*l.n + x }

// MG builds the multigrid V-cycle kernel.
func MG(cfg MGConfig) Kernel {
	return func(p *sim.Proc, env *Env) float64 {
		c := env.C
		P := c.Size()
		me := c.Rank()

		// Build levels: level 0 is finest.
		levels := make([]*mgLevel, cfg.Levels)
		for li := range levels {
			n := cfg.N >> li
			lz := n / P
			if lz < 1 {
				panic("nas: MG level too coarse for the process count")
			}
			levels[li] = &mgLevel{
				n: n, lz: lz,
				u: make([]float64, (lz+2)*n*n),
				r: make([]float64, (lz+2)*n*n),
			}
		}
		// Coarsest (serial) level below the distributed ones.
		cn := cfg.N >> cfg.Levels
		coarse := make([]float64, cn*cn*cn)

		// Initialize the fine-level residual with a deterministic field.
		f := levels[0]
		for z := 1; z <= f.lz; z++ {
			gz := me*f.lz + z - 1
			for y := 0; y < f.n; y++ {
				for x := 0; x < f.n; x++ {
					f.r[f.idx(z, y, x)] = float64((gz*31+y*17+x*7)%101)/101.0 - 0.5
				}
			}
		}

		planeBytes := func(l *mgLevel) int { return l.n * l.n * 8 }
		sendPlane := make([]byte, planeBytes(levels[0]))
		recvPlane := make([]byte, planeBytes(levels[0]))

		// exchange refreshes ghost planes with both z-neighbors.
		exchange := func(l *mgLevel, arr []float64) {
			tag := c.NextCollTag()
			nb := planeBytes(l)
			up, down := (me+1)%P, (me+P-1)%P
			// Send top plane up, receive bottom ghost from below.
			putF64s(sendPlane[:nb], arr[l.idx(l.lz, 0, 0):l.idx(l.lz+1, 0, 0)])
			mpi.Sendrecv(p, c, sendPlane[:nb], up, tag, recvPlane[:nb], down, tag)
			getF64s(arr[l.idx(0, 0, 0):l.idx(1, 0, 0)], recvPlane[:nb])
			// Send bottom plane down, receive top ghost from above.
			putF64s(sendPlane[:nb], arr[l.idx(1, 0, 0):l.idx(2, 0, 0)])
			mpi.Sendrecv(p, c, sendPlane[:nb], down, tag-1000000, recvPlane[:nb], up, tag-1000000)
			getF64s(arr[l.idx(l.lz+1, 0, 0):l.idx(l.lz+2, 0, 0)], recvPlane[:nb])
		}

		// smooth: one weighted-Jacobi sweep of u against r.
		smooth := func(l *mgLevel) {
			exchange(l, l.u)
			n := l.n
			for z := 1; z <= l.lz; z++ {
				for y := 0; y < n; y++ {
					ym, yp := (y+n-1)%n, (y+1)%n
					for x := 0; x < n; x++ {
						xm, xp := (x+n-1)%n, (x+1)%n
						s := l.u[l.idx(z-1, y, x)] + l.u[l.idx(z+1, y, x)] +
							l.u[l.idx(z, ym, x)] + l.u[l.idx(z, yp, x)] +
							l.u[l.idx(z, y, xm)] + l.u[l.idx(z, y, xp)]
						l.u[l.idx(z, y, x)] = 0.8*l.u[l.idx(z, y, x)] +
							0.03*(s+l.r[l.idx(z, y, x)])
					}
				}
			}
			env.Flops(p, float64(l.lz*n*n)*12)
		}

		// restrict: residual-ish injection down one level.
		restrict := func(fine, crs *mgLevel) {
			exchange(fine, fine.u)
			n := crs.n
			for z := 1; z <= crs.lz; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						crs.r[crs.idx(z, y, x)] =
							fine.r[fine.idx(2*z-1, 2*y, 2*x)]*0.5 +
								fine.u[fine.idx(2*z-1, 2*y, 2*x)]*0.1
						crs.u[crs.idx(z, y, x)] = 0
					}
				}
			}
			env.Flops(p, float64(crs.lz*n*n)*4)
		}

		// prolong: add the coarse correction back up.
		prolong := func(crs, fine *mgLevel) {
			exchange(crs, crs.u)
			n := crs.n
			for z := 1; z <= crs.lz; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						v := crs.u[crs.idx(z, y, x)] * 0.5
						fine.u[fine.idx(2*z-1, 2*y, 2*x)] += v
						if 2*z <= fine.lz {
							fine.u[fine.idx(2*z, 2*y, 2*x)] += v
						}
					}
				}
			}
			env.Flops(p, float64(crs.lz*n*n)*3)
		}

		// Coarsest solve: gather the last distributed level's residual to
		// rank 0, relax serially, scatter the correction.
		last := levels[cfg.Levels-1]
		coarseSolve := func() {
			lb := last.lz * last.n * last.n * 8
			send := make([]byte, lb)
			putF64s(send, last.r[last.idx(1, 0, 0):last.idx(last.lz+1, 0, 0)])
			var all []byte
			if me == 0 {
				all = make([]byte, lb*P)
			}
			mpi.Gather(p, c, send, all, 0)
			if me == 0 {
				full := make([]float64, last.n*last.n*last.n)
				getF64s(full, all)
				// A few serial relaxations on the gathered grid (stands in
				// for the recursive coarse V-cycle below the cut).
				for s := 0; s < 4; s++ {
					for i := range coarse {
						coarse[i] = coarse[i]*0.9 + full[(i*8)%len(full)]*0.05
					}
				}
				env.Flops(p, float64(4*len(coarse))*3)
				for i := range full {
					full[i] += coarse[i%len(coarse)] * 0.01
				}
				putF64s(all, full)
			}
			mpi.Scatter(p, c, all, send, 0)
			getF64s(last.u[last.idx(1, 0, 0):last.idx(last.lz+1, 0, 0)], send)
		}

		var norm float64
		for it := 0; it < cfg.Iters; it++ {
			// Down sweep.
			for li := 0; li < cfg.Levels-1; li++ {
				smooth(levels[li])
				restrict(levels[li], levels[li+1])
			}
			coarseSolve()
			// Up sweep.
			for li := cfg.Levels - 2; li >= 0; li-- {
				prolong(levels[li+1], levels[li])
				smooth(levels[li])
			}
			// Residual norm (the NAS verification value).
			var local float64
			for z := 1; z <= f.lz; z++ {
				for i := 0; i < f.n*f.n; i += 13 {
					v := f.u[z*f.n*f.n+i]
					local += v * v
				}
			}
			norm = allreduceSum(p, c, local)
		}
		return norm
	}
}
