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

// planes is planes [z0, z1) of a, one of the level's slabs.
func (l *mgLevel) planes(a []float64, z0, z1 int) []float64 {
	nn := l.n * l.n
	return a[z0*nn : z1*nn]
}

// row is row y of plane z of a, one of the level's slabs.
func (l *mgLevel) row(a []float64, z, y int) []float64 {
	o := (z*l.n + y) * l.n
	return a[o : o+l.n]
}

// MG builds the multigrid V-cycle kernel. Its host loops walk rows and
// wrap x and y explicitly, and keep each expression's operands and order,
// so the checksum is exact.
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

		// Initialize the fine-level residual with a deterministic field:
		// (gz*31 + y*17 + x*7) mod 101, stepped by 7 along each row.
		f := levels[0]
		for z := 1; z <= f.lz; z++ {
			gz := me*f.lz + z - 1
			for y := 0; y < f.n; y++ {
				k := (gz*31 + y*17) % 101
				row := f.row(f.r, z, y)
				for x := range row {
					row[x] = float64(k)/101.0 - 0.5
					if k += 7; k >= 101 {
						k -= 101
					}
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
			putF64s(sendPlane[:nb], l.planes(arr, l.lz, l.lz+1))
			mpi.Sendrecv(p, c, sendPlane[:nb], up, tag, recvPlane[:nb], down, tag)
			getF64s(l.planes(arr, 0, 1), recvPlane[:nb])
			// Send bottom plane down, receive top ghost from above.
			putF64s(sendPlane[:nb], l.planes(arr, 1, 2))
			mpi.Sendrecv(p, c, sendPlane[:nb], down, tag-1000000, recvPlane[:nb], up, tag-1000000)
			getF64s(l.planes(arr, l.lz+1, l.lz+2), recvPlane[:nb])
		}

		// smooth: one weighted-Jacobi sweep of u against r, in place: the
		// x-1, y-1 and z-1 neighbors are read after their update, except
		// where x or y wraps around. west carries the x-1 value in a
		// register: row[n-1] before its update, then each new row[x].
		smooth := func(l *mgLevel) {
			exchange(l, l.u)
			n := l.n
			for z := 1; z <= l.lz; z++ {
				ym := n - 1
				for y := 0; y < n; y++ {
					yp := y + 1
					if yp == n {
						yp = 0
					}
					row, rr := l.row(l.u, z, y), l.row(l.r, z, y)
					below, above := l.row(l.u, z-1, y), l.row(l.u, z+1, y)
					south, north := l.row(l.u, z, ym), l.row(l.u, z, yp)
					west := row[n-1]
					for x := range row {
						xp := x + 1
						if xp == n {
							xp = 0
						}
						s := below[x] + above[x] + south[x] + north[x] + west + row[xp]
						west = 0.8*row[x] + 0.03*(s+rr[x])
						row[x] = west
					}
					ym = y
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
					cr, cu := crs.row(crs.r, z, y), crs.row(crs.u, z, y)
					fr, fu := fine.row(fine.r, 2*z-1, 2*y), fine.row(fine.u, 2*z-1, 2*y)
					for x := range cr {
						cr[x] = fr[2*x]*0.5 + fu[2*x]*0.1
					}
					clear(cu)
				}
			}
			env.Flops(p, float64(crs.lz*n*n)*4)
		}

		// prolong: add the coarse correction back up, to fine planes 2z-1
		// and 2z (fine.lz = fine.n/P is at least 2*crs.lz).
		prolong := func(crs, fine *mgLevel) {
			exchange(crs, crs.u)
			n := crs.n
			for z := 1; z <= crs.lz; z++ {
				for y := 0; y < n; y++ {
					cu := crs.row(crs.u, z, y)
					f0, f1 := fine.row(fine.u, 2*z-1, 2*y), fine.row(fine.u, 2*z, 2*y)
					for x, cv := range cu {
						v := cv * 0.5
						f0[2*x] += v
						f1[2*x] += v
					}
				}
			}
			env.Flops(p, float64(crs.lz*n*n)*3)
		}

		// Coarsest solve: gather the last distributed level's residual to
		// rank 0, relax serially, scatter the correction.
		last := levels[cfg.Levels-1]
		lb := last.lz * last.n * last.n * 8
		send := make([]byte, lb)
		var all []byte
		var full []float64
		if me == 0 {
			all = make([]byte, lb*P)
			full = make([]float64, last.n*last.n*last.n)
		}
		coarseSolve := func() {
			putF64s(send, last.planes(last.r, 1, last.lz+1))
			mpi.Gather(p, c, send, all, 0)
			if me == 0 {
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
			getF64s(last.planes(last.u, 1, last.lz+1), send)
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
