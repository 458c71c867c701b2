package splitc_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"spam/internal/bench"
	"spam/internal/faults"
	"spam/internal/gam"
	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/splitc"
)

// scProgram is one run of the Split-C checker, printed as a Go literal when
// it fails: each rank's ops, run under Plan on SP AM (the zero Plan is
// lossless). Every rank calls the same AllStoreSyncs, BroadcastBytes,
// Barriers and AllReduces in the same order; an AllStoreSync or a
// BroadcastBytes ends an epoch. Within an epoch writes touch disjoint bytes
// and no get reads a byte the epoch writes. Each segment starts as a
// payload of its rank's. Name labels a fixed program.
type scProgram struct {
	Name string
	Seed uint64
	Plan faults.Plan
	Heap int
	Ops  [][]scOp // per rank
}

// scOp is one call. "Store" writes Size bytes at Off on Node; "GetAsync"
// and "Read" copy Size bytes at Off on Node to Loff here; "BroadcastBytes"
// copies rank 0's Size bytes at Off to every rank; "Compute" charges Size
// µs. A rank waits for its gets (Sync) before it ends an epoch and after
// its last op.
type scOp struct {
	Kind            string
	Node, Off, Size int
	Loff            int
}

// payload is the n bytes rank w's op k stores; op -1 is its initial segment.
func payload(w, k, n int) []byte {
	rng, b := rand.New(rand.NewPCG(uint64(w), uint64(k))), make([]byte, 0, n+7)
	for len(b) < n {
		b = binary.LittleEndian.AppendUint64(b, rng.Uint64())
	}
	return b[:n]
}

// share is rank r's contribution to its collective j.
func share(r, j int) uint64 { return uint64(j+1)<<40 | uint64(r+1)*uint64(j+7) }

// ends reports whether op o ends an epoch.
func ends(o scOp) bool { return o.Kind == "AllStoreSync" || o.Kind == "BroadcastBytes" }

// model is the global address space: every segment at the start of each
// epoch, then at the end of the program.
func (prog scProgram) model() [][][]byte {
	cur := make([][]byte, len(prog.Ops))
	for r := range cur {
		cur[r] = payload(r, -1, prog.Heap)
	}
	states, at := [][][]byte{cur}, make([]int, len(cur)) // at: each rank's next op
	for more := true; more; {
		next := make([][]byte, len(cur))
		for r := range next {
			next[r] = slices.Clone(cur[r])
		}
		more = false
		for r, ops := range prog.Ops {
			for done := false; at[r] < len(ops) && !done; at[r]++ {
				switch o := ops[at[r]]; o.Kind {
				case "Store":
					copy(next[o.Node][o.Off:], payload(r, at[r], o.Size))
				case "GetAsync", "Read":
					copy(next[r][o.Loff:], cur[o.Node][o.Off:o.Off+o.Size])
				case "BroadcastBytes":
					copy(next[r][o.Off:], cur[0][o.Off:o.Off+o.Size])
				}
				done = ends(ops[at[r]])
			}
			more = more || at[r] < len(ops)
		}
		states, cur = append(states, next), next
	}
	return states
}

// scSizes straddle AM's thresholds: empty, one byte, one packet (224 B) and
// one byte over, one 36-packet chunk (8,064 B) and one byte over, and over
// the 72-packet window (16,128 B).
var scSizes = []int{0, 1, 224, 225, 8064, 8065, 16200}

// drawSC draws a program of 2 to 5 ranks and 1 to 3 epochs, the last of
// which may end in no AllStoreSync or BroadcastBytes, and a StandardPlans
// entry, from seed.
func drawSC(seed uint64) scProgram {
	rng := rand.New(rand.NewPCG(seed, 0))
	n, heap, plans := 2+rng.IntN(4), 1<<15, faults.StandardPlans(seed)
	prog := scProgram{Seed: seed, Plan: *plans[rng.IntN(len(plans))], Heap: heap, Ops: make([][]scOp, n)}
	kinds := []string{"Store", "Store", "GetAsync", "GetAsync", "Read", "Sync", "Compute"}
	for epochs := 1 + rng.IntN(3); epochs > 0; epochs-- {
		end := scOp{Kind: "AllStoreSync"}
		if d := rng.IntN(4); d == 0 {
			end = scOp{Kind: "BroadcastBytes", Size: scSizes[rng.IntN(len(scSizes))]}
			end.Off = rng.IntN(heap - end.Size + 1)
		} else if d == 1 && epochs == 1 {
			end.Kind = ""
		}
		// The bytes of each segment the epoch writes and reads so far,
		// starting with the broadcast region (empty without a broadcast):
		// read on rank 0, written everywhere else.
		writes, reads := make([][][2]int, n), make([][][2]int, n)
		for r := range n {
			writes[r] = [][2]int{{end.Off, end.Off + end.Size}}
		}
		reads[0], writes[0] = writes[0], nil
		disjoint := func(ivs [][2]int, iv [2]int) bool {
			return !slices.ContainsFunc(ivs, func(w [2]int) bool { return iv[0] < w[1] && w[0] < iv[1] })
		}
		var colls []string
		for range rng.IntN(3) {
			colls = append(colls, []string{"Barrier", "AllReduce"}[rng.IntN(2)])
		}
		for me := range n {
			var ops []scOp
			for range rng.IntN(6) {
				o := scOp{Kind: kinds[rng.IntN(len(kinds))], Node: rng.IntN(n), Size: scSizes[rng.IntN(len(scSizes))]}
				o.Off, o.Loff = rng.IntN(heap-o.Size+1), rng.IntN(heap-o.Size+1)
				src, dst := [2]int{o.Off, o.Off + o.Size}, [2]int{o.Loff, o.Loff + o.Size}
				switch o.Kind {
				case "Store":
					if !disjoint(writes[o.Node], src) || !disjoint(reads[o.Node], src) {
						continue
					}
					writes[o.Node], o.Loff = append(writes[o.Node], src), 0
				case "GetAsync", "Read":
					if !disjoint(writes[o.Node], src) || !disjoint(writes[me], dst) || !disjoint(reads[me], dst) || o.Node == me && !disjoint([][2]int{src}, dst) {
						continue
					}
					reads[o.Node], writes[me] = append(reads[o.Node], src), append(writes[me], dst)
				case "Compute":
					o = scOp{Kind: o.Kind, Size: rng.IntN(200)}
				default:
					o = scOp{Kind: o.Kind}
				}
				ops = append(ops, o)
			}
			at := 0
			for _, c := range colls {
				i := at + rng.IntN(len(ops)-at+1)
				ops, at = slices.Insert(ops, i, scOp{Kind: c}), i+1
			}
			if end.Kind != "" {
				ops = append(ops, end)
			}
			prog.Ops[me] = append(prog.Ops[me], ops...)
		}
	}
	return prog
}

// scPlatforms are the machines the fixed programs run on; the sweep runs
// the first three.
var scPlatforms = []struct {
	name string
	mk   func(n, heap int) splitc.Platform
}{
	{"spam", func(n, heap int) splitc.Platform { return splitc.NewSPAM(n, heap) }},
	{"mpl", func(n, heap int) splitc.Platform { return splitc.NewMPL(n, heap) }},
	{"unet", func(n, heap int) splitc.Platform { return gam.New(gam.UNetATM(), n, heap) }},
	{"cm5", func(n, heap int) splitc.Platform { return gam.New(gam.CM5(), n, heap) }},
}

// TestSplitCOracle runs 200 drawn programs on each of SP AM, under their
// drawn fault plans, MPL and the U-Net ATM machine, and checks them against
// the model. Every plan must fire. Once a program fails the rest return at
// once, and the lowest-numbered failure is reported.
func TestSplitCOracle(t *testing.T) {
	const programs = 200
	type outcome struct {
		err   error
		fired string // the plan, when it fired
	}
	var failed atomic.Bool
	outs := bench.Sweep(bench.Setup{}, 3*programs, func(_ bench.Setup, i int) (o outcome) {
		if failed.Load() {
			return o
		}
		pf, prog := scPlatforms[i%3], drawSC(uint64(i/3+1))
		if pf.name != "spam" {
			prog.Plan = faults.Plan{}
		}
		_, pl, err := prog.run(pf.mk)
		if err != nil {
			failed.Store(true)
			o.err = fmt.Errorf("%s: %v\n%#v", pf.name, err, prog)
		} else if sp, ok := pl.(*splitc.SPAMPlatform); ok && sp.Cluster.Switch.Faults.Total() > 0 {
			o.fired = prog.Plan.Name
		}
		return o
	})
	fired := make(map[string]bool)
	for _, o := range outs {
		if o.err != nil {
			t.Fatal(o.err)
		}
		fired[o.fired] = true
	}
	for _, plan := range faults.StandardPlans(0) {
		if !fired[plan.Name] {
			t.Errorf("no program on spam fired plan %s", plan.Name)
		}
	}
}

// scBudget bounds a run in simulated time: 0.2 s, where the longest drawn
// program ends by 18 ms.
const scBudget = sim.Time(2e8)

// run runs prog on a fresh platform that mk builds, and checks it against
// the model: after a rank's Sync or Read each of its completed gets holds
// the bytes its source held when the epoch began; after it ends an epoch
// each byte of its segment holds what the epoch left there, or what the
// next epoch, whose stores may already be landing, leaves; every AllReduce
// returns the model's sum; no rank leaves a Barrier or AllReduce before the
// last one entered it; every segment ends as the model's; and no AM
// endpoint declares a live peer dead. A run still going at scBudget fails.
// end is when the last rank's ops returned.
func (prog scProgram) run(mk func(n, heap int) splitc.Platform) (end sim.Time, pl splitc.Platform, err error) {
	states, n := prog.model(), len(prog.Ops)
	pl = mk(n, prog.Heap)
	var rts splitc.Runtimes
	var eng *sim.Engine
	switch pl := pl.(type) {
	case *splitc.SPAMPlatform:
		prog.Plan.Apply(pl.Cluster)
		rts, eng = pl.Runtimes, pl.Cluster.Eng
	case *splitc.MPLPlatform:
		rts, eng = pl.Runtimes, pl.Cluster.Eng
	case *gam.Machine:
		rts, eng = pl.Runtimes, pl.Eng
	}
	for r, rt := range rts {
		copy(rt.Mem(), states[0][r])
	}
	eng.At(scBudget, func() {
		if eng.Live() > 0 || eng.Pending() {
			panic(fmt.Sprintf("still running at %v", scBudget))
		}
	})
	var colls [][2]sim.Time // per collective: the last entry and the first exit
	for _, o := range prog.Ops[0] {
		if o.Kind == "Barrier" || o.Kind == "AllReduce" {
			colls = append(colls, [2]sim.Time{0, 1 << 62})
		}
	}
	errs := make([]error, n+1)
	func() {
		defer func() {
			if r := recover(); r != nil {
				errs[n] = fmt.Errorf("%v", r)
			}
		}()
		pl.Run(func(p *sim.Proc, rt *splitc.RT) {
			errs[rt.ID()] = prog.rank(p, rt, states, colls)
			end = max(end, p.Now())
		})
	}()
	for j, c := range colls {
		if c[1] < c[0] {
			errs = append(errs, fmt.Errorf("collective %d: a rank left at %v, before the last entered at %v", j, c[1], c[0]))
		}
	}
	for r, rt := range rts {
		if !bytes.Equal(rt.Mem(), states[len(states)-1][r]) {
			errs = append(errs, fmt.Errorf("rank %d's segment ends unlike the model", r))
		}
	}
	if sp, ok := pl.(*splitc.SPAMPlatform); ok {
		for r, ep := range sp.Sys.EPs {
			if ep.Stats.DeadPeers > 0 {
				errs = append(errs, fmt.Errorf("rank %d declared %d live peers dead", r, ep.Stats.DeadPeers))
			}
		}
	}
	return end, pl, errors.Join(errs...)
}

// rank runs one rank's ops and checks what it can see: its gets, its sums
// and its segment after each epoch.
func (prog scProgram) rank(p *sim.Proc, rt *splitc.RT, states [][][]byte, colls [][2]sim.Time) error {
	me, mem, e, j := rt.ID(), rt.Mem(), 0, 0
	var bad error
	var open []scOp // gets issued and not yet checked
	sync := func() error {
		err := rt.Sync(p)
		for _, o := range open {
			if err == nil && !bytes.Equal(mem[o.Loff:o.Loff+o.Size], states[e][o.Node][o.Off:o.Off+o.Size]) {
				bad = cmp.Or(bad, fmt.Errorf("rank %d at %v: the get %+v differs from the model", me, p.Now(), o))
			}
		}
		open = open[:0]
		return err
	}
	for k, o := range prog.Ops[me] {
		var err error
		gp := splitc.GlobalPtr{Node: o.Node, Off: o.Off}
		switch o.Kind {
		case "Store":
			rt.Store(p, gp, payload(me, k, o.Size))
		case "GetAsync":
			rt.GetAsync(p, gp, o.Loff, o.Size)
			open = append(open, o)
		case "Read":
			open = append(open, o)
			err = cmp.Or(rt.Read(p, gp, o.Loff, o.Size), sync())
		case "Sync":
			err = sync()
		case "Compute":
			rt.Compute(p, hw.US(float64(o.Size)))
		case "Barrier", "AllReduce":
			colls[j][0] = max(colls[j][0], p.Now())
			var want uint64
			for r := range rt.N() {
				want += share(r, j)
			}
			if o.Kind == "Barrier" {
				err = rt.Barrier(p)
			} else if got := rt.AllReduce(p, share(me, j)); rt.Err == nil && got != want {
				bad = cmp.Or(bad, fmt.Errorf("rank %d: AllReduce %d returned %#x, want %#x", me, j, got, want))
			}
			colls[j][1] = min(colls[j][1], p.Now())
			err, j = cmp.Or(err, rt.Err), j+1
		case "AllStoreSync":
			err = cmp.Or(sync(), rt.AllStoreSync(p))
		case "BroadcastBytes":
			err = cmp.Or(sync(), rt.BroadcastBytes(p, o.Off, o.Size))
		}
		if err != nil {
			return err
		}
		if !ends(o) {
			continue
		}
		if e++; !bytes.Equal(mem, states[e][me]) { // the next epoch's stores may be landing
			for i, b := range mem {
				if b != states[e][me][i] && (e+1 == len(states) || b != states[e+1][me][i]) {
					bad = cmp.Or(bad, fmt.Errorf("rank %d at %v: after %s byte %d differs from the model", me, p.Now(), o.Kind, i))
				}
			}
		}
	}
	return cmp.Or(sync(), bad)
}
