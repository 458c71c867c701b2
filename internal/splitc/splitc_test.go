package splitc_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"spam/internal/gam"
	"spam/internal/sim"
	"spam/internal/splitc"
)

// platforms returns one instance of each Split-C platform kind, freshly
// built for a subtest.
func platforms(n, heap int) map[string]splitc.Platform {
	return map[string]splitc.Platform{
		"spam": splitc.NewSPAM(n, heap),
		"mpl":  splitc.NewMPL(n, heap),
		"cm5":  gam.New(gam.CM5(), n, heap),
		"unet": gam.New(gam.UNetATM(), n, heap),
	}
}

func forEachPlatform(t *testing.T, n, heap int, fn func(t *testing.T, pl splitc.Platform)) {
	t.Helper()
	for name, pl := range platforms(n, heap) {
		pl := pl
		t.Run(name, func(t *testing.T) { fn(t, pl) })
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	forEachPlatform(t, 4, 1024, func(t *testing.T, pl splitc.Platform) {
		var maxBefore, minAfter sim.Time
		minAfter = 1 << 62
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			// Stagger arrival times.
			p.Advance(sim.Time(rt.ID()) * 100000)
			if p.Now() > maxBefore {
				maxBefore = p.Now()
			}
			rt.Barrier(p)
			if p.Now() < minAfter {
				minAfter = p.Now()
			}
		})
		if minAfter < maxBefore {
			t.Fatalf("barrier leaked: a process left at %v before the last arrived at %v",
				minAfter, maxBefore)
		}
	})
}

func TestAllReduceSumMaxMin(t *testing.T) {
	forEachPlatform(t, 5, 1024, func(t *testing.T, pl splitc.Platform) {
		sums := make([]uint64, pl.N())
		maxs := make([]uint64, pl.N())
		mins := make([]uint64, pl.N())
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			id := uint64(rt.ID())
			sums[rt.ID()] = rt.AllReduce(p, splitc.OpSum, id+1)
			maxs[rt.ID()] = rt.AllReduce(p, splitc.OpMax, id*10)
			mins[rt.ID()] = rt.AllReduce(p, splitc.OpMin, 100-id)
		})
		for i := 0; i < pl.N(); i++ {
			if sums[i] != 15 { // 1+2+3+4+5
				t.Fatalf("node %d sum = %d, want 15", i, sums[i])
			}
			if maxs[i] != 40 {
				t.Fatalf("node %d max = %d, want 40", i, maxs[i])
			}
			if mins[i] != 96 {
				t.Fatalf("node %d min = %d, want 96", i, mins[i])
			}
		}
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	forEachPlatform(t, 3, 4096, func(t *testing.T, pl splitc.Platform) {
		ok := true
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			me := rt.ID()
			right := (me + 1) % rt.N()
			// Each node stores a signature into its right neighbor at
			// offset 0, then reads it back from the neighbor into local
			// offset 1024 and verifies.
			sig := []byte{byte(me), 0xAB, byte(me * 3), 0xCD}
			rt.Store(p, splitc.GlobalPtr{Node: right, Off: 0}, sig)
			rt.AllStoreSync(p)
			rt.Read(p, splitc.GlobalPtr{Node: right, Off: 0}, 1024, 4)
			got := rt.Mem()[1024:1028]
			want := []byte{byte(me), 0xAB, byte(me * 3), 0xCD}
			if !bytes.Equal(got, want) {
				ok = false
			}
			// And what landed locally must be from the left neighbor.
			left := (me + rt.N() - 1) % rt.N()
			if rt.Mem()[0] != byte(left) {
				ok = false
			}
			rt.Barrier(p)
		})
		if !ok {
			t.Fatal("store/get data mismatch")
		}
	})
}

func TestStoreAndAllStoreSync(t *testing.T) {
	forEachPlatform(t, 4, 8192, func(t *testing.T, pl splitc.Platform) {
		ok := true
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			me := rt.ID()
			// Every node stores an 8-byte record into every other node at
			// a rank-determined offset.
			rec := make([]byte, 8)
			binary.LittleEndian.PutUint64(rec, uint64(me)*1000+7)
			for d := 0; d < rt.N(); d++ {
				if d == me {
					continue
				}
				rt.Store(p, splitc.GlobalPtr{Node: d, Off: me * 8}, rec)
			}
			rt.AllStoreSync(p)
			for s := 0; s < rt.N(); s++ {
				if s == me {
					continue
				}
				got := binary.LittleEndian.Uint64(rt.Mem()[s*8:])
				if got != uint64(s)*1000+7 {
					ok = false
				}
			}
		})
		if !ok {
			t.Fatal("stores not all deposited after AllStoreSync")
		}
	})
}

func TestBroadcastBytes(t *testing.T) {
	forEachPlatform(t, 6, 4096, func(t *testing.T, pl splitc.Platform) {
		ok := true
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			if rt.ID() == 0 {
				copy(rt.Mem()[100:], []byte("splitters!"))
			}
			rt.BroadcastBytes(p, 0, 100, 10)
			if string(rt.Mem()[100:110]) != "splitters!" {
				ok = false
			}
		})
		if !ok {
			t.Fatal("broadcast did not reach every node")
		}
	})
}

func TestManySmallStoresAllArrive(t *testing.T) {
	// The fine-grained pattern of the paper's small-message sorts.
	forEachPlatform(t, 4, 1<<16, func(t *testing.T, pl splitc.Platform) {
		const per = 200
		var deposited int
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			me := rt.ID()
			rec := make([]byte, 4)
			for i := 0; i < per; i++ {
				d := (me + 1 + i%(rt.N()-1)) % rt.N()
				binary.LittleEndian.PutUint32(rec, uint32(i))
				rt.Store(p, splitc.GlobalPtr{Node: d, Off: (me*per + i) * 4}, rec)
			}
			rt.AllStoreSync(p)
			deposited += int(rt.T.StoredBytes())
		})
		want := 4 * per * pl.N()
		if deposited != want {
			t.Fatalf("deposited %d bytes, want %d", deposited, want)
		}
	})
}

func TestCommTimeAccounting(t *testing.T) {
	pl := splitc.NewSPAM(2, 4096)
	var comm, total sim.Time
	end := pl.Run(func(p *sim.Proc, rt *splitc.RT) {
		if rt.ID() == 0 {
			rt.Compute(p, sim.Time(1e6)) // 1 ms of pure compute
			rt.Read(p, splitc.GlobalPtr{Node: 1, Off: 0}, 0, 4096)
			comm = rt.CommTime
			total = p.Now()
		} else {
			// Serve the read: the get is answered from this node's polls.
			for p.Now() < 5e6 {
				rt.Poll(p)
			}
		}
	})
	if comm <= 0 || comm >= total {
		t.Fatalf("comm time %v out of range (total %v)", comm, total)
	}
	if total-comm < sim.Time(1e6) {
		t.Fatalf("compute time %v should be at least the charged 1ms", total-comm)
	}
	_ = end
}
