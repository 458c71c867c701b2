package mpi_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"spam/internal/bench"
	"spam/internal/hw"
	"spam/internal/matchoracle"
	"spam/internal/mpi"
	"spam/internal/sim"
)

// mpiProgram is one run of the MPI matching oracle, printed as a Go literal
// when it fails. Each rank waits Pause µs, sends its messages, receives
// every message sent to it, waits for its sends and ends in Finalize. Sends
// are Isends waited in a drawn order after the receive phase, or with Block
// blocking mpi.Sends; either way the sender overwrites each buffer as soon
// as its send completes. With Filters the receive phase is blocking receives
// with those filters in order; without, it is drawn at run time from Seed:
// matchoracle's filters, up to four open Irecvs waited in a drawn order,
// blocking receives and Compute pauses. Every rank calls Colls in list
// order: at its own drawn points of a drawn receive phase, the last of them
// before its open receives are waited, and otherwise after its receives.
type mpiProgram struct {
	Seed    uint64
	Sends   [][]matchoracle.Msg // per rank, in send order
	Pause   []int
	Block   bool
	Filters [][]matchoracle.Filter // per rank
	Colls   []collective
}

// collective is one collective call. Size is the bytes per rank (per block
// for Gather, Scatter and the Alltoalls); Barrier ignores Size and Root,
// Allreduce and the Alltoalls ignore Root.
type collective struct {
	Op         string
	Root, Size int
}

// collOps are the collectives a program draws from.
var collOps = []string{"Barrier", "Bcast", "Allreduce", "Gather", "Scatter", "AlltoallNaive", "AlltoallPairwise"}

// oracleSizes straddle every stack's protocol switches: empty, small, the
// optimized MPI-AM hybrid prefix and MPI-F's eager limit and one byte over,
// one byte over optimized MPI-AM's buffered limit, and 50,000 B.
var oracleSizes = []int{0, 13, 1024, 4096, 4097, 8193, 50000}

// drawProgram draws a program of 2 to 4 ranks from seed.
func drawProgram(seed uint64) mpiProgram {
	rng := rand.New(rand.NewPCG(seed, 0))
	n := 2 + rng.IntN(3)
	prog := mpiProgram{Seed: seed, Sends: matchoracle.Draw(rng, n, 4, 3, oracleSizes), Pause: make([]int, n)}
	for i := range prog.Pause {
		prog.Pause[i] = rng.IntN(1000)
	}
	for range 1 + rng.IntN(3) {
		prog.Colls = append(prog.Colls, collective{collOps[rng.IntN(len(collOps))], rng.IntN(n), oracleSizes[rng.IntN(len(oracleSizes))]})
	}
	return prog
}

// TestMPIMatchingOracle runs 200 drawn programs on each of the three
// stacks and checks every receive against matchoracle's model (exactly
// once, filters, bytes and status, and both non-overtaking rules) and every
// collective's result against its model.
func TestMPIMatchingOracle(t *testing.T) {
	const programs = 200
	errs := bench.Sweep(bench.Setup{}, programs*len(stacks), func(_ bench.Setup, i int) error {
		st, prog := stacks[i%len(stacks)], drawProgram(uint64(i/len(stacks)+1))
		if err := prog.run(st.pts); err != nil {
			return fmt.Errorf("%s: %v\n%#v", st.name, err, prog)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// oracleCase runs fixed programs on every stack.
func oracleCase(t *testing.T, progs ...mpiProgram) {
	eachStack(t, func(t *testing.T, mk func(*hw.Cluster) []mpi.PT) {
		for _, prog := range progs {
			if err := prog.run(mk); err != nil {
				t.Fatalf("%v\n%#v", err, prog)
			}
		}
	})
}

// TestTagAndSourceMatching: rank 2 receives tag 6 from any source first,
// although rank 0's tag-5 message arrives 200 µs before rank 1's.
func TestTagAndSourceMatching(t *testing.T) {
	oracleCase(t, mpiProgram{
		Sends:   [][]matchoracle.Msg{{{Src: 0, Dst: 2, Tag: 5, Size: 1}}, {{Src: 1, Dst: 2, Tag: 6, Size: 1}}, nil},
		Pause:   []int{0, 200, 0},
		Block:   true,
		Filters: [][]matchoracle.Filter{nil, nil, {{Src: mpi.AnySource, Tag: 6}, {Src: mpi.AnySource, Tag: mpi.AnyTag}}},
	})
}

// TestOrderingPreserved: 150 blocking sends on one tag arrive in order, at
// 4 B (buffered or eager on every stack) and 6,000 B (rendezvous on MPI-F).
func TestOrderingPreserved(t *testing.T) {
	var progs []mpiProgram
	for _, size := range []int{4, 6000} {
		prog := mpiProgram{Sends: make([][]matchoracle.Msg, 2), Pause: []int{0, 0}, Block: true, Filters: make([][]matchoracle.Filter, 2)}
		for k := range 150 {
			prog.Sends[0] = append(prog.Sends[0], matchoracle.Msg{Src: 0, Dst: 1, K: k, Tag: 3, Size: size})
			prog.Filters[1] = append(prog.Filters[1], matchoracle.Filter{Src: 0, Tag: 3})
		}
		progs = append(progs, prog)
	}
	oracleCase(t, progs...)
}

// TestUnexpectedMessages: the message arrives before its receive is posted,
// at buffered or eager and at rendezvous sizes, and must not change when the
// sender overwrites its buffer as soon as the blocking Send returns.
func TestUnexpectedMessages(t *testing.T) {
	var progs []mpiProgram
	for _, size := range []int{100, 512, 50000} {
		progs = append(progs, mpiProgram{
			Sends:   [][]matchoracle.Msg{{{Src: 0, Dst: 1, Tag: 7, Size: size}}, nil},
			Pause:   []int{0, 3000},
			Block:   true,
			Filters: [][]matchoracle.Filter{nil, {{Src: 0, Tag: 7}}},
		})
	}
	oracleCase(t, progs...)
}

// TestCollectives: five ranks, whose binomial trees are three levels deep
// and not full, call the collectives with no point-to-point traffic around
// them.
func TestCollectives(t *testing.T) {
	oracleCase(t, mpiProgram{Sends: make([][]matchoracle.Msg, 5), Pause: make([]int, 5),
		Colls: []collective{{"Barrier", 0, 0}, {"Bcast", 2, 1000}, {"Allreduce", 0, 8}, {"Gather", 0, 8}, {"Bcast", 0, 40},
			{"Scatter", 1, 64}, {"AlltoallNaive", 0, 16}, {"AlltoallPairwise", 0, 16}}})
}

// TestScatterGather: a Scatter from rank 1 and a Gather to rank 0 on four
// ranks.
func TestScatterGather(t *testing.T) {
	oracleCase(t, mpiProgram{Sends: make([][]matchoracle.Msg, 4), Pause: make([]int, 4),
		Colls: []collective{{"Scatter", 1, 64}, {"Gather", 0, 64}}})
}

// TestAlltoallLargeChunks: both Alltoalls on four ranks with rendezvous-sized
// blocks on every stack.
func TestAlltoallLargeChunks(t *testing.T) {
	oracleCase(t, mpiProgram{Sends: make([][]matchoracle.Msg, 4), Pause: make([]int, 4),
		Colls: []collective{{"AlltoallNaive", 0, 20000}, {"AlltoallPairwise", 0, 20000}}})
}

// TestWildcardSkipsCollectives: rank 0's open AnySource/AnyTag receive must
// leave rank 1's Barrier message to the Barrier and take the tag-7 message
// rank 1 sends once the Barrier is over.
func TestWildcardSkipsCollectives(t *testing.T) {
	sends := [][]matchoracle.Msg{nil, {{Src: 1, Dst: 0, Tag: 7, Size: 13}}}
	eachStack(t, func(t *testing.T, mk func(*hw.Cluster) []mpi.PT) {
		err := runRanks(0, sends, mk, func(p *sim.Proc, _ *hw.Node, c mpi.PT, _ *rand.Rand, rc *matchoracle.Receiver) error {
			if c.Rank() == 1 {
				if err := mpi.Barrier(p, c); err != nil {
					return err
				}
				return mpi.Send(p, c, sends[1][0].Payload(), 0, 7)
			}
			f := matchoracle.Filter{Src: mpi.AnySource, Tag: mpi.AnyTag}
			buf := make([]byte, 64)
			seq, req := rc.Post(f), c.Irecv(p, buf, f.Src, f.Tag)
			berr := mpi.Barrier(p, c)
			st, err := c.Wait(p, req)
			if err == nil {
				rc.Done(seq, buf[:st.Size], st.Source, st.Tag)
			}
			return cmp.Or(berr, err)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// run runs prog on a fresh cluster over the stack mk builds and checks
// every rank's receives and collectives.
func (prog mpiProgram) run(mk func(*hw.Cluster) []mpi.PT) error {
	return runRanks(prog.Seed, prog.Sends, mk, prog.rank)
}

// oracleBudget bounds a program in simulated time, every blocking call of
// its body and then its Finalize: 0.2 s, where the longest program ends by
// 0.06 s.
var oracleBudget = hw.US(200000)

// runRanks runs body on every rank of a fresh cluster over the stack mk
// builds, with each rank's receiver for the program sends, then Finalize,
// and checks every rank's receives.
func runRanks(seed uint64, sends [][]matchoracle.Msg, mk func(*hw.Cluster) []mpi.PT,
	body func(p *sim.Proc, nd *hw.Node, c mpi.PT, rng *rand.Rand, rc *matchoracle.Receiver) error) error {
	n := len(sends)
	c := hw.NewCluster(hw.DefaultConfig(n))
	rcs := make([]*matchoracle.Receiver, n)
	errs := make([]error, n)
	for id, pt := range mk(c) {
		rng := rand.New(rand.NewPCG(seed, uint64(id+1)))
		rcs[id] = matchoracle.NewReceiver(rng, sends, id)
		c.Spawn(id, "mpi", func(p *sim.Proc, nd *hw.Node) {
			pt.SetDeadline(nd.Eng.Now() + oracleBudget)
			err := body(p, nd, pt, rng, rcs[id])
			errs[id] = cmp.Or(err, pt.Finalize(p, oracleBudget))
		})
	}
	// The watchdog outlasts a body that times out and its Finalize, so a
	// program that hangs reports the calls that timed out.
	if err := c.RunChecked(3 * oracleBudget); err != nil {
		return fmt.Errorf("did not end: %v", err)
	}
	for r, rc := range rcs {
		if err := errors.Join(errs[r], rc.Check()); err != nil {
			return fmt.Errorf("rank %d: %v", r, err)
		}
	}
	return nil
}

// rank runs one rank's part of prog.
func (prog mpiProgram) rank(p *sim.Proc, nd *hw.Node, c mpi.PT, rng *rand.Rand, rc *matchoracle.Receiver) error {
	invert := func(b []byte) {
		for i := range b {
			b[i] = ^b[i]
		}
	}
	p.Advance(hw.US(float64(prog.Pause[c.Rank()])))
	var sends []*mpi.Request
	var bufs [][]byte
	for _, m := range prog.Sends[c.Rank()] {
		buf := m.Payload()
		if !prog.Block {
			sends, bufs = append(sends, c.Isend(p, buf, m.Dst, m.Tag)), append(bufs, buf)
		} else if err := mpi.Send(p, c, buf, m.Dst, m.Tag); err != nil {
			return err
		} else {
			invert(buf)
		}
	}
	recv := func(f matchoracle.Filter) error {
		buf := make([]byte, slices.Max(oracleSizes))
		seq := rc.Post(f)
		st, err := mpi.Recv(p, c, buf, f.Src, f.Tag)
		if err == nil {
			rc.Done(seq, buf[:st.Size], st.Source, st.Tag)
		}
		return err
	}
	// colls calls the next collective, or with all every one left.
	next := 0
	colls := func(all bool) error {
		for next < len(prog.Colls) {
			next++
			if err := collectiveCheck(p, c, prog.Colls[next-1], next-1); err != nil || !all {
				return err
			}
		}
		return nil
	}
	if prog.Filters != nil {
		for _, f := range prog.Filters[c.Rank()] {
			if err := recv(f); err != nil {
				return err
			}
		}
	} else if err := drawnReceives(p, nd, c, rng, rc, recv, colls); err != nil {
		return err
	}
	if err := colls(true); err != nil {
		return err
	}
	for _, i := range rng.Perm(len(sends)) {
		if _, err := c.Wait(p, sends[i]); err != nil {
			return err
		}
		invert(bufs[i])
	}
	return nil
}

// drawnReceives is a drawn receive phase: it ends when every message sent
// to the rank has been received, and calls the collectives left before it
// waits for its last open receives.
func drawnReceives(p *sim.Proc, nd *hw.Node, c mpi.PT, rng *rand.Rand, rc *matchoracle.Receiver,
	recv func(matchoracle.Filter) error, colls func(all bool) error) error {
	type open struct {
		req *mpi.Request
		seq int
		buf []byte
	}
	var opens []open
	wait := func() error {
		i := rng.IntN(len(opens))
		o := opens[i]
		opens[i] = opens[len(opens)-1]
		opens = opens[:len(opens)-1]
		st, err := c.Wait(p, o.req)
		if err == nil {
			rc.Done(o.seq, o.buf[:st.Size], st.Source, st.Tag)
		}
		return err
	}
	for rc.More() {
		var err error
		switch rng.IntN(6) {
		case 0:
			nd.Compute(p, hw.US(float64(rng.IntN(200))))
		case 1, 2:
			if f, ok := rc.Pick(); ok && len(opens) < 4 {
				buf := make([]byte, slices.Max(oracleSizes))
				opens = append(opens, open{req: c.Irecv(p, buf, f.Src, f.Tag), seq: rc.Post(f), buf: buf})
			} else if len(opens) > 0 {
				err = wait()
			}
		case 3:
			if f, ok := rc.Pick(); ok {
				err = recv(f)
			} else {
				err = wait()
			}
		case 4:
			if len(opens) > 0 {
				err = wait()
			}
		case 5:
			err = colls(false)
		}
		if err != nil {
			return err
		}
	}
	if err := colls(true); err != nil {
		return err
	}
	for len(opens) > 0 {
		if err := wait(); err != nil {
			return err
		}
	}
	return nil
}

// collectiveCheck calls collective j of a program on c and checks what it
// leaves in this rank's buffers against a model computed from the inputs:
// block d of rank s's input is the payload of the message {s, d, j}.
func collectiveCheck(p *sim.Proc, c mpi.PT, col collective, j int) error {
	me, n := c.Rank(), c.Size()
	block := func(s, d int) []byte { return matchoracle.Msg{Src: s, Dst: d, K: j, Size: col.Size}.Payload() }
	blocks := func(b func(r int) []byte) []byte {
		var all []byte
		for r := range n {
			all = append(all, b(r)...)
		}
		return all
	}
	var got, want []byte
	var err error
	switch col.Op {
	case "Barrier":
		err = mpi.Barrier(p, c)
	case "Bcast":
		got, want = block(me, me), block(col.Root, col.Root)
		err = mpi.Bcast(p, c, got, col.Root)
	case "Allreduce":
		got, want = make([]byte, col.Size), make([]byte, col.Size)
		for r := range n {
			addBytes(want, block(r, 0))
		}
		err = mpi.Allreduce(p, c, block(me, 0), got, addBytes)
	case "Gather":
		got = make([]byte, n*col.Size)
		err = mpi.Gather(p, c, block(me, col.Root), got, col.Root)
		if me == col.Root {
			want = blocks(func(r int) []byte { return block(r, col.Root) })
		} else {
			got = nil
		}
	case "Scatter":
		got, want = make([]byte, col.Size), block(col.Root, me)
		err = mpi.Scatter(p, c, blocks(func(r int) []byte { return block(col.Root, r) }), got, col.Root)
	case "AlltoallNaive", "AlltoallPairwise":
		alltoall := mpi.AlltoallNaive
		if col.Op == "AlltoallPairwise" {
			alltoall = mpi.AlltoallPairwise
		}
		got, want = make([]byte, n*col.Size), blocks(func(s int) []byte { return block(s, me) })
		err = alltoall(p, c, blocks(func(d int) []byte { return block(me, d) }), got, col.Size)
	default:
		panic("oracle: unknown collective " + col.Op)
	}
	if err != nil {
		return fmt.Errorf("collective %d %+v: %v", j, col, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("collective %d %+v left %d bytes that differ from the model", j, col, len(got))
	}
	return nil
}

// addBytes is the reduction the oracle's Allreduce runs: byte-wise sum.
func addBytes(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}
