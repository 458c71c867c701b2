// Package nas implements communication-faithful miniature versions of the
// NAS Parallel Benchmarks 2.0 kernels the paper runs in Table 6: BT, FT,
// LU, MG and SP. Each kernel performs real (simplified) arithmetic on
// distributed state — so a communication bug changes the checksum — while
// charging the full per-point floating-point cost of the original kernel,
// and reproduces the original's communication pattern: FT's transpose via
// MPI_Alltoall, LU's SSOR wavefront pipeline, MG's halo exchanges across a
// V-cycle, and BT/SP's ADI face exchanges in three sweep directions. LU,
// BT and SP share one pencil decomposition (pencil.go): five variables per
// point, the x-y plane split over a px x py process grid, the full z
// extent local, and one boundary-face wire layout. The host loops walk
// row slices with explicit wraparound and keep every floating-point
// expression's operands and evaluation order (no reassociation, no
// math.FMA), so the checksums, like the simulated times, are exact.
//
// Every kernel programs against mpi.PT and package mpi's blocking calls
// over it, so the identical code runs over both of mpi's stacks, MPI-AM
// (mpi.New: MPICH on SP Active Messages) and MPI-F (mpi.NewF: the vendor
// MPI model), exactly the comparison of Table 6. Problem sizes and iteration counts
// are scaled from Class A (documented per kernel); EXPERIMENTS.md records
// the scaling.
package nas

import (
	"encoding/binary"
	"math"

	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/sim"
)

// flopNS is the charged time per floating-point operation on the SP's
// POWER2 (same calibration as the Split-C benchmarks: ~20 sustained
// MFLOPS in compiled stencil/solver code).
const flopNS = 50

// Env is what a kernel runs with on one rank.
type Env struct {
	C    mpi.PT
	Node *hw.Node // charged for the kernel's arithmetic
}

// Flops charges n floating-point operations.
func (e *Env) Flops(p *sim.Proc, n float64) {
	e.Node.Compute(p, sim.Time(n*flopNS))
}

// Result is one kernel execution.
type Result struct {
	Bench    string
	Impl     string
	Seconds  float64 // simulated wall time of the timed section
	Checksum float64 // cross-implementation verification value
	Errs     []error // per-rank closing-phase error (nil entries on success)
}

// Kernel is a runnable NAS kernel.
type Kernel func(p *sim.Proc, env *Env) float64

// Run executes kernel SPMD over the given comms on cluster, with a barrier
// fence, and returns wall seconds plus rank-0's checksum.
func Run(cluster *hw.Cluster, comms []mpi.PT, bench, impl string, kernel Kernel) Result {
	return RunBudget(cluster, comms, bench, impl, kernel, 0)
}

// RunBudget is Run with a bounded closing phase: once a rank leaves the
// kernel body, budget (0 = unbounded) caps — in simulated time — its closing
// barrier and finalize, so a rank stranded by a dead peer returns a typed
// error in Result.Errs instead of wedging the run. The kernel body itself is
// protected by the AM layer's fail-stop detection (every blocking MPI call
// errors once the peer is declared dead).
func RunBudget(cluster *hw.Cluster, comms []mpi.PT, bench, impl string, kernel Kernel, budget sim.Time) Result {
	n := len(comms)
	sums := make([]float64, n)
	errs := make([]error, n)
	var t0, t1 sim.Time
	for i := 0; i < n; i++ {
		i := i
		c := comms[i]
		cluster.Spawn(i, "nas-"+bench, func(p *sim.Proc, nd *hw.Node) {
			env := &Env{C: c, Node: nd}
			mpi.Barrier(p, c)
			if i == 0 {
				t0 = p.Now()
			}
			sums[i] = kernel(p, env)
			if budget > 0 {
				c.SetDeadline(p.Now() + budget)
			}
			err := mpi.Barrier(p, c)
			if i == 0 {
				t1 = p.Now()
			}
			if budget > 0 {
				c.SetDeadline(0) // Finalize arms its own budget
			}
			// Drain before exiting: under fault injection a rank must keep
			// polling (and retransmitting) until every peer's traffic is
			// fully acknowledged.
			if ferr := c.Finalize(p, budget); err == nil {
				err = ferr
			}
			errs[i] = err
		})
	}
	cluster.Run()
	return Result{Bench: bench, Impl: impl, Seconds: (t1 - t0).Seconds(), Checksum: sums[0], Errs: errs}
}

// Float64 slice <-> byte helpers for MPI buffers.

func putF64s(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func putC128s(dst []byte, src []complex128) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(dst[16*i+8:], math.Float64bits(imag(v)))
	}
}

func getC128s(dst []complex128, src []byte) {
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(src[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(src[16*i+8:]))
		dst[i] = complex(re, im)
	}
}

// sumF64Op is the Allreduce combiner for one float64.
func sumF64Op(dst, src []byte) {
	a := math.Float64frombits(binary.LittleEndian.Uint64(dst))
	b := math.Float64frombits(binary.LittleEndian.Uint64(src))
	binary.LittleEndian.PutUint64(dst, math.Float64bits(a+b))
}

// allreduceSum sums one float64 across ranks.
func allreduceSum(p *sim.Proc, c mpi.PT, v float64) float64 {
	send := make([]byte, 8)
	recv := make([]byte, 8)
	binary.LittleEndian.PutUint64(send, math.Float64bits(v))
	mpi.Allreduce(p, c, send, recv, sumF64Op)
	return math.Float64frombits(binary.LittleEndian.Uint64(recv))
}
