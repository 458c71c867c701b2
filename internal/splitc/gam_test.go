package splitc_test

import (
	"testing"

	"spam/internal/sim"
	"spam/internal/splitc"
)

// TestRoundTripMatchesTable4 checks each parameterized machine reproduces
// its Table-4 round trip: a get (request + data reply) measured at the
// runtime level should land near 2*(o_s+o_r) + 2*L plus the wire time.
func TestRoundTripMatchesTable4(t *testing.T) {
	cases := []struct {
		p       splitc.Machine
		wantRTT float64 // table value, us
		tol     float64
	}{
		{splitc.CM5(), 12, 4},
		{splitc.CS2(), 25, 5},
		{splitc.UNetATM(), 66, 8},
	}
	for _, tc := range cases {
		m := splitc.NewGAM(tc.p, 2, 1024)
		var rtt float64
		m.Run(func(p *sim.Proc, rt *splitc.RT) {
			if rt.ID() != 0 {
				// Peer services the network until the driver finishes.
				for i := 0; i < 3000 && p.Now() < 5e6; i++ {
					rt.Poll(p)
				}
				return
			}
			const iters = 20
			// Warm-up.
			rt.Read(p, splitc.GlobalPtr{Node: 1, Off: 0}, 0, 4)
			t0 := p.Now()
			for i := 0; i < iters; i++ {
				rt.Read(p, splitc.GlobalPtr{Node: 1, Off: 0}, 0, 4)
			}
			rtt = (p.Now() - t0).Microseconds() / iters
		})
		if rtt < tc.wantRTT-tc.tol || rtt > tc.wantRTT+tc.tol {
			t.Errorf("%s: get round trip %.1fus, want %0.f +/- %.0f",
				tc.p.Name, rtt, tc.wantRTT, tc.tol)
		} else {
			t.Logf("%s: get round trip %.1fus (Table 4: %.0f)", tc.p.Name, rtt, tc.wantRTT)
		}
	}
}

// TestBandwidthMatchesTable4 checks each machine's bulk store bandwidth
// approaches its Table-4 link rate.
func TestBandwidthMatchesTable4(t *testing.T) {
	for _, p := range splitc.Table4() {
		p := p
		const size = 1 << 16
		m := splitc.NewGAM(p, 2, size)
		var mbps float64
		m.Run(func(q *sim.Proc, rt *splitc.RT) {
			if rt.ID() == 0 {
				data := make([]byte, size)
				t0 := q.Now()
				const reps = 8
				for i := 0; i < reps; i++ {
					rt.Store(q, splitc.GlobalPtr{Node: 1, Off: 0}, data)
				}
				rt.AllStoreSync(q)
				mbps = float64(reps*size) / 1e6 / (q.Now() - t0).Seconds()
			} else {
				rt.AllStoreSync(q)
			}
		})
		if mbps < p.MBps*0.75 || mbps > p.MBps*1.05 {
			t.Errorf("%s: bulk bandwidth %.1f MB/s, want near %.0f", p.Name, mbps, p.MBps)
		} else {
			t.Logf("%s: bulk bandwidth %.1f MB/s (Table 4: %.0f)", p.Name, mbps, p.MBps)
		}
	}
}

// TestCPUScaleOrdersComputeTime verifies the compute-speed ordering the
// Figure-4 cpu bars rely on: CM-5 slowest, then CS-2, then U-Net.
func TestCPUScaleOrdersComputeTime(t *testing.T) {
	compute := func(p splitc.Machine) sim.Time {
		m := splitc.NewGAM(p, 1, 64)
		var el sim.Time
		m.Run(func(q *sim.Proc, rt *splitc.RT) {
			t0 := q.Now()
			rt.Compute(q, 1e6)
			el = q.Now() - t0
		})
		return el
	}
	cm5, cs2, unet := compute(splitc.CM5()), compute(splitc.CS2()), compute(splitc.UNetATM())
	if !(cm5 > cs2 && cs2 > unet) {
		t.Fatalf("compute times must order CM-5 (%v) > CS-2 (%v) > U-Net (%v)", cm5, cs2, unet)
	}
}

// TestGetMovesData checks the get path end to end on a slow machine.
func TestGetMovesData(t *testing.T) {
	m := splitc.NewGAM(splitc.UNetATM(), 2, 4096)
	ok := false
	m.Run(func(p *sim.Proc, rt *splitc.RT) {
		if rt.ID() == 1 {
			copy(rt.Mem()[256:], []byte("remote payload"))
			rt.Barrier(p)
			rt.Barrier(p)
			return
		}
		rt.Barrier(p)
		rt.Read(p, splitc.GlobalPtr{Node: 1, Off: 256}, 0, 14)
		ok = string(rt.Mem()[:14]) == "remote payload"
		rt.Barrier(p)
	})
	if !ok {
		t.Fatal("get returned wrong data")
	}
}
