package splitc_test

import (
	"fmt"
	"strings"
	"testing"

	"spam/internal/faults"
	"spam/internal/sim"
	"spam/internal/splitc"
)

// TestKillEndsCollectives: on SP AM under FailStopPlans' kill (node 1 dies
// at 2 ms), each rank stores 3 bytes to its right neighbour and enters a
// Barrier, over and over, until a call fails. Only the ranks with traffic
// toward rank 1 see it die; a rank that left the tree's wait without
// sending its down message would strand a survivor inside its Barrier. So
// every survivor must return within the budget, with an error that names
// rank 1.
func TestKillEndsCollectives(t *testing.T) {
	const budget = sim.Time(1e9)
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprint(n, " ranks"), func(t *testing.T) {
			pl := splitc.NewSPAM(n, 64)
			faults.FailStopPlans(1)[0].Apply(pl.Cluster)
			errs := make([]error, n)
			if err := bounded(pl.Cluster.Eng, budget, func() {
				pl.Run(func(p *sim.Proc, rt *splitc.RT) {
					me := rt.ID()
					for errs[me] == nil {
						rt.Store(p, splitc.GlobalPtr{Node: (me + 1) % n}, []byte("abc"))
						errs[me] = rt.Barrier(p)
					}
				})
			}); err != nil {
				t.Fatalf("%v; the ranks returned %v", err, errs)
			}
			for r, err := range errs {
				if r != 1 && (err == nil || !strings.Contains(err.Error(), "peer 1 ")) {
					t.Errorf("rank %d returned %v, want an error naming peer 1", r, err)
				}
			}
		})
	}
}
