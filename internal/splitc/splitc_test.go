package splitc_test

import (
	"fmt"
	"strings"
	"testing"

	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/splitc"
)

// scCase runs fixed programs on every platform, a subtest each. With a
// seed it runs the first on SP AM under each StandardPlans(seed) entry, a
// subtest each: the plan must fire, and the run end within 40× the lossless
// simulated time. The model makes each run's gets, sums and segments the
// lossless run's.
func scCase(t *testing.T, seed uint64, progs ...scProgram) {
	for _, pf := range scPlatforms {
		t.Run(pf.name, func(t *testing.T) {
			for _, prog := range progs {
				if _, _, err := prog.run(pf.mk); err != nil {
					t.Errorf("%v\n%#v", err, prog)
				}
			}
		})
	}
	if seed == 0 {
		return
	}
	prog, spam := progs[0], scPlatforms[0].mk
	lossless, _, _ := prog.run(spam)
	for _, plan := range faults.StandardPlans(seed) {
		t.Run(plan.Name, func(t *testing.T) {
			prog.Plan = *plan
			end, pl, err := prog.run(spam)
			switch {
			case err != nil:
				t.Errorf("%v\n%#v", err, prog)
			case pl.(*splitc.SPAMPlatform).Cluster.Switch.Faults.Total() == 0:
				t.Errorf("the plan never fired\n%#v", prog)
			case end > 40*lossless:
				t.Errorf("ended at %v, over 40× the lossless %v\n%#v", end, lossless, prog)
			}
		})
	}
}

// spmd is n ranks' ops, rank r's from ops(r).
func spmd(n int, ops func(r int) []scOp) [][]scOp {
	all := make([][]scOp, n)
	for r := range all {
		all[r] = ops(r)
	}
	return all
}

// TestBarrierSynchronizes: four ranks enter a Barrier 100 µs apart.
func TestBarrierSynchronizes(t *testing.T) {
	scCase(t, 0, scProgram{Heap: 64, Ops: spmd(4, func(r int) []scOp { return []scOp{{Kind: "Compute", Size: 100 * r}, {Kind: "Barrier"}} })})
}

// TestStoreThenBarrierEnds: rank 0 stores 8 bytes to rank 1, and both end
// in a Barrier, with rank 0's last control message perhaps still queued.
// The run must end, with the store landed.
func TestStoreThenBarrierEnds(t *testing.T) {
	scCase(t, 0, scProgram{Heap: 1024, Ops: [][]scOp{{{Kind: "Store", Node: 1, Off: 64, Size: 8}, {Kind: "Barrier"}}, {{Kind: "Barrier"}}}})
}

// TestLastMessagesLand: drawn program 42 on MPL ended with stores still on
// their way, and 2 on U-Net ATM with gets to ranks whose ops were done.
// MPL's processes stopped once every send was injected, not taken, and a
// Table-4 machine's as soon as their own ops were done, so a 16,200 B store
// of a rank to itself before its last Barrier was lost, and a get from a
// rank with no ops never answered.
func TestLastMessagesLand(t *testing.T) {
	self := func(r int) []scOp { return []scOp{{Kind: "Store", Node: r, Off: 54, Size: 16200}, {Kind: "Barrier"}} }
	scCase(t, 0, scProgram{Name: "root", Heap: 1 << 15, Ops: [][]scOp{self(0), {{Kind: "Barrier"}}}},
		scProgram{Name: "leaf", Heap: 1 << 15, Ops: [][]scOp{{{Kind: "Barrier"}}, self(1)}},
		scProgram{Name: "idle", Heap: 1 << 15, Ops: [][]scOp{{{Kind: "Read", Node: 1, Size: 4096}}, nil}})
}

// TestAllReduceSum: five ranks, whose tree is not full, sum twice.
func TestAllReduceSum(t *testing.T) {
	scCase(t, 0, scProgram{Heap: 64, Ops: spmd(5, func(int) []scOp { return []scOp{{Kind: "AllReduce"}, {Kind: "AllReduce"}} })})
}

// TestPutGetRoundTrip: each of three ranks stores 4 bytes into its right
// neighbor and reads them back.
func TestPutGetRoundTrip(t *testing.T) {
	scCase(t, 0, scProgram{Heap: 4096, Ops: spmd(3, func(r int) []scOp {
		return []scOp{{Kind: "Store", Node: (r + 1) % 3, Size: 4}, {Kind: "AllStoreSync"}, {Kind: "Read", Node: (r + 1) % 3, Size: 4, Loff: 1024}, {Kind: "Barrier"}}
	})})
}

// TestStoreAndAllStoreSync: each of four ranks stores 8 bytes into every
// other, at an offset of its own.
func TestStoreAndAllStoreSync(t *testing.T) {
	scCase(t, 0, scProgram{Heap: 8192, Ops: spmd(4, func(r int) (ops []scOp) {
		for d := range 4 {
			if d != r {
				ops = append(ops, scOp{Kind: "Store", Node: d, Off: 8 * r, Size: 8})
			}
		}
		return append(ops, scOp{Kind: "AllStoreSync"})
	})})
}

// TestBroadcastBytes: rank 0's 10 bytes at 100 reach five other ranks.
func TestBroadcastBytes(t *testing.T) {
	scCase(t, 0, scProgram{Heap: 4096, Ops: spmd(6, func(int) []scOp { return []scOp{{Kind: "BroadcastBytes", Off: 100, Size: 10}} })})
}

// TestManySmallStoresAllArrive: the fine-grained pattern of the paper's
// small-message sorts, 200 4-byte stores from each of four ranks.
func TestManySmallStoresAllArrive(t *testing.T) {
	scCase(t, 0, scProgram{Heap: 4096, Ops: spmd(4, func(r int) (ops []scOp) {
		for i := range 200 {
			ops = append(ops, scOp{Kind: "Store", Node: (r + 1 + i%3) % 4, Off: (r*200 + i) * 4, Size: 4})
		}
		return append(ops, scOp{Kind: "AllStoreSync"})
	})})
}

// TestChaosMatMul: blocked matrix multiply's traffic, a chunk's worth of
// gets from every rank, a reduction and stores one byte over a chunk.
func TestChaosMatMul(t *testing.T) {
	scCase(t, 3003, scProgram{Heap: 1 << 16, Ops: spmd(4, func(r int) (ops []scOp) {
		for s := range 4 {
			ops = append(ops, scOp{Kind: "GetAsync", Node: s, Size: 8064, Loff: 8192 * (s + 1)})
		}
		return append(ops, scOp{Kind: "Sync"}, scOp{Kind: "Compute", Size: 100}, scOp{Kind: "AllReduce"},
			scOp{Kind: "Store", Node: (r + 1) % 4, Off: 49152, Size: 8065}, scOp{Kind: "AllStoreSync"})
	})})
}

// TestChaosRadixSort: radix sort's counting, scan and permute phases,
// reductions, 4-byte stores to every rank and a bulk store, read back.
func TestChaosRadixSort(t *testing.T) {
	scCase(t, 4004, scProgram{Heap: 8192, Ops: spmd(4, func(r int) []scOp {
		ops := []scOp{{Kind: "AllReduce"}, {Kind: "AllReduce"}}
		for i := range 64 {
			ops = append(ops, scOp{Kind: "Store", Node: i % 4, Off: (r*64 + i) * 4, Size: 4})
		}
		return append(ops, scOp{Kind: "Store", Node: (r + 1) % 4, Off: 4096, Size: 2048}, scOp{Kind: "AllStoreSync"},
			scOp{Kind: "Read", Node: (r + 3) % 4, Off: 4096, Size: 2048}, scOp{Kind: "AllReduce"})
	})})
}

// TestChaosSampleSort: sample sort's splitter broadcast and all-to-all
// redistribution of buckets of one to four packets, read back.
func TestChaosSampleSort(t *testing.T) {
	scCase(t, 5005, scProgram{Heap: 1 << 14, Ops: spmd(4, func(r int) []scOp {
		ops := []scOp{{Kind: "BroadcastBytes", Size: 224}}
		for d := range 4 {
			ops = append(ops, scOp{Kind: "Store", Node: d, Off: 1024 + 1024*r, Size: 225 * (1 + (r+d)%4)})
		}
		return append(ops, scOp{Kind: "AllStoreSync"}, scOp{Kind: "GetAsync", Node: (r + 1) % 4, Off: 1024, Size: 4096, Loff: 8192}, scOp{Kind: "Barrier"})
	})})
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
	for _, pf := range scPlatforms {
		for _, tc := range cases {
			t.Run(pf.name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "splitc: ") {
						t.Fatalf("panic %q, want the runtime's splitc: check", msg)
					}
				}()
				pf.mk(2, 1024).Run(func(p *sim.Proc, rt *splitc.RT) {
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

// TestCommTimeAccounting: rank 0 computes for 1 ms, then reads 4,096 B
// from rank 1; its CommTime is the read's time and no more.
func TestCommTimeAccounting(t *testing.T) {
	prog := scProgram{Heap: 4096, Ops: [][]scOp{{{Kind: "Compute", Size: 1000}, {Kind: "Read", Node: 1, Size: 4096}}, nil}}
	total, pl, err := prog.run(scPlatforms[0].mk)
	if comm := pl.(*splitc.SPAMPlatform).Runtimes[0].CommTime; err != nil || comm <= 0 || total-comm < hw.US(1000) {
		t.Fatalf("comm time %v of %v, want above 0 and at least 1 ms below the total (%v)", comm, total, err)
	}
}
