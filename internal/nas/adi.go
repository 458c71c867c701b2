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

// ADI builds the BT/SP-style kernel on the pencil decomposition. Each time
// step sweeps x, y, and z; the x and y sweeps exchange whole pencil faces
// with both neighbors along that axis using Isend/Irecv/Wait (the
// originals' multi-partition style), the z sweep is purely local.
func ADI(cfg ADIConfig) Kernel {
	return func(p *sim.Proc, env *Env) float64 {
		c := env.C
		g := newPencil(c, cfg.N)
		u, n := g.u, g.n
		for i := range u {
			u[i] = float64((i*40503+7)%977)/977.0 - 0.5
		}

		// Face workspaces, separate send/recv per side so nonblocking
		// operations never alias.
		size := max(g.faceBytes(0, n), g.faceBytes(1, n))
		sendLo, sendHi := make([]byte, size), make([]byte, size)
		recvLo, recvHi := make([]byte, size), make([]byte, size)

		// exchange swaps one whole face with both neighbors along axis.
		exchange := func(axis, tag int) {
			nb := g.faceBytes(axis, n)
			lo, hi := g.neighbor(axis, -1), g.neighbor(axis, 1)
			var reqs []*mpi.Request
			if lo >= 0 {
				reqs = append(reqs, c.Irecv(p, recvLo[:nb], lo, tag+1))
			}
			if hi >= 0 {
				reqs = append(reqs, c.Irecv(p, recvHi[:nb], hi, tag))
			}
			if lo >= 0 {
				g.pack(sendLo, axis, 0, 0, n)
				reqs = append(reqs, c.Isend(p, sendLo[:nb], lo, tag))
			}
			if hi >= 0 {
				g.pack(sendHi, axis, g.boundary(axis, 1), 0, n)
				reqs = append(reqs, c.Isend(p, sendHi[:nb], hi, tag+1))
			}
			for _, r := range reqs {
				c.Wait(p, r)
			}
			if lo >= 0 {
				g.fold(recvLo, axis, 0, 0, n, 0.01)
			}
			if hi >= 0 {
				g.fold(recvHi, axis, g.boundary(axis, 1), 0, n, 0.01)
			}
		}

		// localSweep relaxes along one axis (real data movement so the
		// checksum depends on every exchange).
		localSweep := func(seed float64) {
			for i := 1; i < len(u); i++ {
				u[i] = 0.98*u[i] + 0.01*u[i-1] + seed*1e-6
			}
			env.Flops(p, float64(len(u)/nv)*cfg.FlopsPerPoint)
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
				norm = allreduceSum(p, c, g.sumSquares(53))
			}
		}
		return norm
	}
}
