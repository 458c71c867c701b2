// Package apps contains the Split-C application benchmarks of the paper's
// Section 3: a blocked matrix multiply (two block sizes), a sample sort in
// small-message and bulk variants, and a radix sort in small-message and
// bulk variants. Each is instrumented to split execution into local
// computation and communication phases, which is how the paper's Figure 4
// normalizes machines against each other.
package apps

import (
	"encoding/binary"
	"math"

	"spam/internal/sim"
	"spam/internal/splitc"
)

// Result is one benchmark execution on one machine.
type Result struct {
	Bench string
	// TotalSec is the wall (virtual) time of the timed section; CommSec is
	// the maximum per-process time spent in communication; CPUSec is their
	// difference (the paper's "local computation phases").
	TotalSec, CommSec, CPUSec float64
	// Checksum allows correctness verification across machines.
	Checksum uint64
}

// Calibrated per-element computation costs on the SP's POWER2 (all scaled
// by each machine's CPUScale through rt.Compute). The paper's Table 5
// absolute times anchor these: ~50 ns per fused multiply-add inner-loop
// iteration of dgemm, and tens of ns per key for sort phases.
const (
	costFMA       = 50 // ns per inner-loop multiply-add (dgemm)
	costCompare   = 35 // ns per comparison in local sorts
	costHistogram = 12 // ns per key per histogram pass
	costScatter   = 25 // ns per key moved in a local permute
	costPartition = 10 // ns per key per splitter-search step
)

func nsPerKeySort(n int) sim.Time {
	if n <= 1 {
		return sim.Time(costCompare)
	}
	return sim.Time(float64(n) * math.Log2(float64(n)) * costCompare)
}

// putU32 stores a little-endian uint32 (the benchmarks' key format).
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// getU32 loads a little-endian uint32.
func getU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// timed runs body on every process of pl with a barrier before and after,
// and assembles the Result from the slowest process's timings.
func timed(pl splitc.Platform, bench string,
	setup func(p *sim.Proc, rt *splitc.RT),
	body func(p *sim.Proc, rt *splitc.RT) uint64) Result {

	n := pl.N()
	totals := make([]sim.Time, n)
	comms := make([]sim.Time, n)
	sums := make([]uint64, n)
	pl.Run(func(p *sim.Proc, rt *splitc.RT) {
		setup(p, rt)
		rt.Barrier(p)
		rt.CommTime = 0
		t0 := p.Now()
		sums[rt.ID()] = body(p, rt)
		rt.Barrier(p)
		totals[rt.ID()] = p.Now() - t0
		comms[rt.ID()] = rt.CommTime
	})
	res := Result{Bench: bench}
	var maxT, maxC sim.Time
	for i := 0; i < n; i++ {
		if totals[i] > maxT {
			maxT = totals[i]
		}
		if comms[i] > maxC {
			maxC = comms[i]
		}
		res.Checksum += sums[i]
	}
	res.TotalSec = maxT.Seconds()
	res.CommSec = maxC.Seconds()
	res.CPUSec = res.TotalSec - res.CommSec
	return res
}

// keyRand is the deterministic per-process key generator used by the sorts.
func keyRand(rank int) *sim.Rand { return sim.NewRand(uint64(rank)*2654435761 + 12345) }
