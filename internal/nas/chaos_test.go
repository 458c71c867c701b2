package nas_test

import (
	"math"
	"testing"

	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/nas"
)

// chaosCase runs kernel k on four MPI-AM nodes losslessly, then under each
// StandardPlans(seed) entry, a subtest each. The lossless run must inject no
// fault; each plan must fire, leave the checksum's bits the lossless run's
// (the kernels do real floating-point arithmetic, so any communication
// error diverges them) and end within 40× the lossless simulated time.
func chaosCase(t *testing.T, seed uint64, bench string, k nas.Kernel) {
	run := func(plan *faults.Plan) (uint64, *hw.Cluster) {
		c := hw.NewCluster(hw.DefaultConfig(4))
		comms := commsOn("mpi-am", c)
		plan.Apply(c)
		return math.Float64bits(nas.Run(c, comms, bench, "mpi-am", k).Checksum), c
	}
	sum, base := run(nil)
	if n := base.Switch.Faults.Total(); n != 0 {
		t.Fatalf("the lossless run injected %d faults", n)
	}
	for _, plan := range faults.StandardPlans(seed) {
		t.Run(plan.Name, func(t *testing.T) {
			switch s, c := run(plan); {
			case c.Switch.Faults.Total() == 0:
				t.Errorf("plan %#v never fired", plan)
			case s != sum:
				t.Errorf("checksum %#x under plan %#v, want the lossless %#x (losses: %+v)", s, plan, sum, c.Losses())
			case c.Eng.Now() > 40*base.Eng.Now():
				t.Errorf("ended at %v under plan %#v, over 40× the lossless %v", c.Eng.Now(), plan, base.Eng.Now())
			}
		})
	}
}

// TestChaosFT runs the FT kernel, Alltoall-dominated, under every standard
// fault plan.
func TestChaosFT(t *testing.T) {
	chaosCase(t, 6006, "FT", nas.FT(nas.FTConfig{N: 16, Iters: 2}))
}

// TestChaosMG runs the MG kernel, neighbor exchanges across grid levels,
// under every standard fault plan.
func TestChaosMG(t *testing.T) {
	chaosCase(t, 7007, "MG", nas.MG(nas.MGConfig{N: 32, Iters: 2, Levels: 2}))
}
