package splitc_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
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

// TestStoreThenBarrierEnds is a process whose last act leaves a message in
// flight: node 0 stores 8 bytes to node 1, then both enter a barrier, and
// node 0's final control message may still be queued when its program
// returns. The run must end, with the store landed.
func TestStoreThenBarrierEnds(t *testing.T) {
	forEachPlatform(t, 2, 1024, func(t *testing.T, pl splitc.Platform) {
		want := []byte("8 bytes.")
		mem := make([][]byte, pl.N())
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			mem[rt.ID()] = rt.Mem()
			if rt.ID() == 0 {
				rt.Store(p, splitc.GlobalPtr{Node: 1, Off: 64}, want)
			}
			rt.Barrier(p)
		})
		if got := mem[1][64:72]; !bytes.Equal(got, want) {
			t.Fatalf("node 1 holds %q, want %q", got, want)
		}
	})
}

func TestAllReduceSum(t *testing.T) {
	forEachPlatform(t, 5, 1024, func(t *testing.T, pl splitc.Platform) {
		sums := make([]uint64, pl.N())
		again := make([]uint64, pl.N())
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			id := uint64(rt.ID())
			sums[rt.ID()] = rt.AllReduce(p, id+1)
			again[rt.ID()] = rt.AllReduce(p, 100-id)
		})
		for i := 0; i < pl.N(); i++ {
			if sums[i] != 15 { // 1+2+3+4+5
				t.Fatalf("node %d sum = %d, want 15", i, sums[i])
			}
			if again[i] != 490 { // the next generation: 100+99+98+97+96
				t.Fatalf("node %d second sum = %d, want 490", i, again[i])
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
			rt.BroadcastBytes(p, 100, 10)
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
	// The fine-grained pattern of the paper's small-message sorts: every
	// word lands in its place.
	forEachPlatform(t, 4, 1<<16, func(t *testing.T, pl splitc.Platform) {
		const per = 200
		var checked, wrong int
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			me, n := rt.ID(), rt.N()
			dst := func(src, i int) int { return (src + 1 + i%(n-1)) % n }
			rec := make([]byte, 4)
			for i := 0; i < per; i++ {
				binary.LittleEndian.PutUint32(rec, uint32(i))
				rt.Store(p, splitc.GlobalPtr{Node: dst(me, i), Off: (me*per + i) * 4}, rec)
			}
			rt.AllStoreSync(p)
			for src := 0; src < n; src++ {
				for i := 0; i < per; i++ {
					if src != me && dst(src, i) == me {
						checked++
						if binary.LittleEndian.Uint32(rt.Mem()[(src*per+i)*4:]) != uint32(i) {
							wrong++
						}
					}
				}
			}
		})
		if want := per * pl.N(); checked != want || wrong != 0 {
			t.Fatalf("checked %d words, want %d; %d not in place", checked, want, wrong)
		}
	})
}

// TestGlobalPointerOutOfRange checks every platform rejects a global
// pointer outside the machine, or a get into a local range outside the
// segment, with the runtime's one panic.
func TestGlobalPointerOutOfRange(t *testing.T) {
	word := make([]byte, 8)
	cases := []struct {
		name string
		op   func(p *sim.Proc, rt *splitc.RT)
	}{
		{"node 5", func(p *sim.Proc, rt *splitc.RT) { rt.Read(p, splitc.GlobalPtr{Node: 5}, 0, 8) }},
		{"node -1", func(p *sim.Proc, rt *splitc.RT) { rt.Store(p, splitc.GlobalPtr{Node: -1}, word) }},
		{"store past the end", func(p *sim.Proc, rt *splitc.RT) { rt.Store(p, splitc.GlobalPtr{Node: 1, Off: 1020}, word) }},
		{"get source past the end", func(p *sim.Proc, rt *splitc.RT) { rt.Read(p, splitc.GlobalPtr{Node: 1, Off: 1020}, 0, 8) }},
		{"get destination past the end", func(p *sim.Proc, rt *splitc.RT) { rt.Read(p, splitc.GlobalPtr{Node: 1}, 1020, 8) }},
	}
	for name, mk := range map[string]func() splitc.Platform{
		"spam": func() splitc.Platform { return splitc.NewSPAM(2, 1024) },
		"mpl":  func() splitc.Platform { return splitc.NewMPL(2, 1024) },
		"cm5":  func() splitc.Platform { return gam.New(gam.CM5(), 2, 1024) },
	} {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "splitc: ") {
						t.Fatalf("panic %q, want the runtime's splitc: check", msg)
					}
				}()
				mk().Run(func(p *sim.Proc, rt *splitc.RT) {
					if rt.ID() == 0 {
						tc.op(p, rt)
						return
					}
					for p.Now() < 1e6 { // serve node 0 for a millisecond
						rt.Poll(p)
					}
				})
			})
		}
	}
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
