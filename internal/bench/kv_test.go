package bench

import (
	"testing"

	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/kv"
)

// TestKVUnderStandardPlans composes the served workload with every
// recoverable fault kind (loss, burst, duplication, reorder, corruption,
// blackout, degraded link): the plan must fire, every request must still
// end in a reply or a typed error, the replicas must converge with no latch
// held, and no cache may serve past its lease.
func TestKVUnderStandardPlans(t *testing.T) {
	plans := faults.StandardPlans(0x5eed)
	type outcome struct {
		res    *kv.Result
		losses hw.LossReport
		err    error
	}
	outs := Sweep(Setup{}, len(plans), func(_ Setup, i int) outcome {
		svc, err := kv.New(kv.Config{
			Servers: 3, ClientNodes: 3, Replicas: 2, Keys: 1 << 10, Zipf: 1.1,
			Rate: 100e3, Requests: 2000, Seed: 7, Plan: plans[i],
		})
		if err != nil {
			return outcome{err: err}
		}
		res, err := svc.Run()
		if err == nil {
			err = svc.CheckInvariants()
		}
		return outcome{res, svc.Losses(), err}
	})
	for i, o := range outs {
		name := plans[i].Name
		if o.err != nil {
			t.Errorf("%s: %v", name, o.err)
			continue
		}
		if o.losses.Faults.Total() == 0 {
			t.Errorf("%s: the plan never fired: %+v", name, o.losses)
		}
		r := o.res
		if got := r.Completed + r.Conflicts + r.Unavail; got != r.Issued || r.Issued != 2000 {
			t.Errorf("%s: %d outcomes (%d ok, %d conflict, %d unavailable) for %d issued of 2000",
				name, got, r.Completed, r.Conflicts, r.Unavail, r.Issued)
		}
		if r.StaleServed != 0 {
			t.Errorf("%s: %d lease-expired cache serves", name, r.StaleServed)
		}
		t.Logf("%-9s %+v: %d ok, %d conflict, %d unavailable, %d retransmits", name, o.losses, r.Completed, r.Conflicts, r.Unavail, r.AM.Retransmits)
	}
}
