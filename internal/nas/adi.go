package nas

import (
	"spam/internal/mpi"
	"spam/internal/sim"
)

// ADIConfig sizes the BT and SP kernels. Both are ADI (alternating
// direction implicit) pseudo-applications on a cubic grid with five
// variables per point; they differ in per-point work (BT solves 5x5 block
// tridiagonals, SP scalar pentadiagonals) and in how much boundary data a
// sweep exchanges. Class A is 64^3 with 200 (BT) / 400 (SP) steps; the
// scaled defaults keep 64^3 and run 20 / 40 steps.
type ADIConfig struct {
	N             int
	Iters         int
	FlopsPerPoint float64 // per direction sweep
	FacesPerSweep int     // boundary-plane exchanges per direction sweep
}

// DefaultBT returns the scaled BT configuration.
func DefaultBT() ADIConfig {
	return ADIConfig{N: 64, Iters: 20, FlopsPerPoint: 250, FacesPerSweep: 2}
}

// DefaultSP returns the scaled SP configuration. SP does less arithmetic
// per point but exchanges boundary data more often, so its communication
// fraction (and its sensitivity to the MPI layer, per Table 6) is higher.
func DefaultSP() ADIConfig {
	return ADIConfig{N: 64, Iters: 40, FlopsPerPoint: 120, FacesPerSweep: 3}
}

// ADI builds the BT/SP-style kernel: a px x py pencil decomposition with
// the full z extent local. Each time step sweeps x, y, and z; the x and y
// sweeps exchange whole pencil faces with both neighbors in that direction
// using Isend/Irecv/Waitall (the originals' multi-partition style), the z
// sweep is purely local.
func ADI(cfg ADIConfig) Kernel {
	return func(p *sim.Proc, env *Env) float64 {
		c := env.C
		P := c.Size()
		px, py := procGrid2D(P)
		me := c.Rank()
		mx, my := me%px, me/px
		n := cfg.N
		lx, ly := n/px, n/py
		const nv = 5

		u := make([]float64, lx*ly*n*nv)
		idx := func(x, y, z, v int) int { return ((z*ly+y)*lx+x)*nv + v }
		for i := range u {
			u[i] = float64((i*40503+7)%977)/977.0 - 0.5
		}
		rankOf := func(ax, ay int) int { return ay*px + ax }

		// Face workspaces (one per direction, separate send/recv per side
		// so nonblocking operations never alias).
		xVals := ly * n * nv
		yVals := lx * n * nv
		sendLo := make([]byte, max(xVals, yVals)*8)
		sendHi := make([]byte, max(xVals, yVals)*8)
		recvLo := make([]byte, max(xVals, yVals)*8)
		recvHi := make([]byte, max(xVals, yVals)*8)
		faceF := make([]float64, max(xVals, yVals))

		// packX gathers the x==col boundary face into faceF.
		packX := func(col int) {
			for z := 0; z < n; z++ {
				for y := 0; y < ly; y++ {
					for v := 0; v < nv; v++ {
						faceF[(z*ly+y)*nv+v] = u[idx(col, y, z, v)]
					}
				}
			}
		}
		foldX := func(col int, b []byte) {
			getF64s(faceF[:xVals], b)
			for z := 0; z < n; z++ {
				for y := 0; y < ly; y++ {
					for v := 0; v < nv; v++ {
						u[idx(col, y, z, v)] += 0.01 * faceF[(z*ly+y)*nv+v]
					}
				}
			}
		}
		packY := func(row int) {
			for z := 0; z < n; z++ {
				for x := 0; x < lx; x++ {
					for v := 0; v < nv; v++ {
						faceF[(z*lx+x)*nv+v] = u[idx(x, row, z, v)]
					}
				}
			}
		}
		foldY := func(row int, b []byte) {
			getF64s(faceF[:yVals], b)
			for z := 0; z < n; z++ {
				for x := 0; x < lx; x++ {
					for v := 0; v < nv; v++ {
						u[idx(x, row, z, v)] += 0.01 * faceF[(z*lx+x)*nv+v]
					}
				}
			}
		}

		// exchange performs one face swap with both neighbors along a
		// direction (dir 0 = x, 1 = y) using nonblocking operations.
		exchange := func(dir, tag int) {
			var reqs []mpi.Req
			var loRank, hiRank int
			var nb int
			var hasLo, hasHi bool
			if dir == 0 {
				hasLo, hasHi = mx > 0, mx < px-1
				if hasLo {
					loRank = rankOf(mx-1, my)
				}
				if hasHi {
					hiRank = rankOf(mx+1, my)
				}
				nb = xVals * 8
			} else {
				hasLo, hasHi = my > 0, my < py-1
				if hasLo {
					loRank = rankOf(mx, my-1)
				}
				if hasHi {
					hiRank = rankOf(mx, my+1)
				}
				nb = yVals * 8
			}
			if hasLo {
				reqs = append(reqs, c.IrecvR(p, recvLo[:nb], loRank, tag+1))
			}
			if hasHi {
				reqs = append(reqs, c.IrecvR(p, recvHi[:nb], hiRank, tag))
			}
			if hasLo {
				if dir == 0 {
					packX(0)
				} else {
					packY(0)
				}
				putF64s(sendLo[:nb], faceF[:nb/8])
				reqs = append(reqs, c.IsendR(p, sendLo[:nb], loRank, tag))
			}
			if hasHi {
				if dir == 0 {
					packX(lx - 1)
				} else {
					packY(ly - 1)
				}
				putF64s(sendHi[:nb], faceF[:nb/8])
				reqs = append(reqs, c.IsendR(p, sendHi[:nb], hiRank, tag+1))
			}
			for _, r := range reqs {
				c.WaitR(p, r)
			}
			if hasLo {
				if dir == 0 {
					foldX(0, recvLo[:nb])
				} else {
					foldY(0, recvLo[:nb])
				}
			}
			if hasHi {
				if dir == 0 {
					foldX(lx-1, recvHi[:nb])
				} else {
					foldY(ly-1, recvHi[:nb])
				}
			}
		}

		// localSweep relaxes along one axis (real data movement so the
		// checksum depends on every exchange).
		localSweep := func(seed float64) {
			for i := 1; i < len(u); i++ {
				u[i] = 0.98*u[i] + 0.01*u[i-1] + seed*1e-6
			}
			env.Flops(p, float64(lx*ly*n)*cfg.FlopsPerPoint)
		}

		var norm float64
		for it := 0; it < cfg.Iters; it++ {
			base := c.NextCollTag() - 100
			for f := 0; f < cfg.FacesPerSweep; f++ {
				exchange(0, base-2*f) // x sweep faces
			}
			localSweep(1)
			for f := 0; f < cfg.FacesPerSweep; f++ {
				exchange(1, base-1000-2*f) // y sweep faces
			}
			localSweep(2)
			localSweep(3) // z sweep: local
			if it%5 == 4 || it == cfg.Iters-1 {
				var local float64
				for i := 0; i < len(u); i += 53 {
					local += u[i] * u[i]
				}
				norm = allreduceSum(p, c, local)
			}
		}
		return norm
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
