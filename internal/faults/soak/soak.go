// Package soak runs a workload under a suite of fault plans and checks that
// chaos changes nothing but time: the end-to-end checksum must equal the
// lossless baseline's, and the slowdown must stay bounded. Workloads build a
// fresh cluster per run so plans never contaminate one another.
package soak

import (
	"testing"

	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/sim"
)

// Run is one complete workload execution: a checksum over every result the
// workload considers meaningful (received payloads, delivery counts, final
// memory images), the simulated elapsed time, and the cluster it ran on
// (for fault and loss accounting).
type Run struct {
	Checksum uint64
	Elapsed  sim.Time
	Cluster  *hw.Cluster
}

// Workload executes the scenario under test on a fresh cluster with the
// given fault plan applied (nil = lossless baseline) and reports the run.
type Workload func(plan *faults.Plan) Run

// Soak executes w once losslessly, then once under each plan as a subtest,
// asserting that each chaotic run (a) actually suffered injected faults,
// (b) produced exactly the baseline checksum, and (c) finished within
// maxSlowdown times the baseline's simulated time. A failure prints the plan
// as the Go literal (%#v) that reproduces it.
func Soak(t *testing.T, w Workload, plans []*faults.Plan, maxSlowdown float64) {
	t.Helper()
	base := w(nil)
	if base.Cluster.Switch.Faults.Total() != 0 {
		t.Fatalf("baseline run injected %d faults; want 0", base.Cluster.Switch.Faults.Total())
	}
	for _, plan := range plans {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			r := w(plan)
			if n := r.Cluster.Switch.Faults.Total(); n == 0 {
				t.Errorf("plan %#v injected no faults; the plan never fired", plan)
			}
			if r.Checksum != base.Checksum {
				t.Errorf("checksum %#x under plan %#v, want lossless %#x (losses: %+v)",
					r.Checksum, plan, base.Checksum, r.Cluster.Losses())
			}
			if lim := sim.Time(float64(base.Elapsed) * maxSlowdown); r.Elapsed > lim {
				t.Errorf("elapsed %v under plan %#v exceeds %.1fx lossless %v",
					r.Elapsed, plan, maxSlowdown, base.Elapsed)
			}
		})
	}
}

// Mix folds a value into a running checksum (splitmix64 finalizer), giving
// workloads an order-sensitive, collision-resistant accumulator.
func Mix(sum, v uint64) uint64 {
	z := sum + 0x9e3779b97f4a7c15 + v
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MixBytes folds a byte slice into the checksum.
func MixBytes(sum uint64, b []byte) uint64 {
	for len(b) >= 8 {
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		sum = Mix(sum, v)
		b = b[8:]
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * uint(i))
	}
	return Mix(sum, tail|uint64(len(b))<<56)
}
