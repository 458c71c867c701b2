package mpi_test

import (
	"cmp"
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
// every message sent to it, and then waits for its sends. Sends are Isends
// waited in a drawn order after the receive phase, or with Block blocking
// mpi.Sends; either way the sender overwrites each buffer as soon as its
// send completes. With Filters the receive phase is blocking receives with
// those filters in order; without, it is drawn at run time from Seed:
// matchoracle's filters, up to four open Irecvs waited in a drawn order,
// blocking receives, and Compute pauses.
type mpiProgram struct {
	Seed    uint64
	Sends   [][]matchoracle.Msg // per rank, in send order
	Pause   []int
	Block   bool
	Filters [][]matchoracle.Filter // per rank
}

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
	return prog
}

// TestMPIMatchingOracle runs 200 drawn programs on each of the three
// stacks and checks every receive against matchoracle's model: exactly
// once, filters, bytes and status, and both non-overtaking rules.
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

// run runs prog on a fresh cluster over the stack mk builds and checks
// every rank's receives. A rank that is done keeps polling until every rank
// is, so no rank waits on a peer that has stopped.
func (prog mpiProgram) run(mk func(*hw.Cluster) []mpi.PT) error {
	n := len(prog.Sends)
	c := hw.NewCluster(hw.DefaultConfig(n))
	rcs := make([]*matchoracle.Receiver, n)
	errs := make([]error, n)
	finished := 0
	for id, pt := range mk(c) {
		rng := rand.New(rand.NewPCG(prog.Seed, uint64(id+1)))
		rcs[id] = matchoracle.NewReceiver(rng, prog.Sends, id)
		c.Spawn(id, "mpi", func(p *sim.Proc, nd *hw.Node) {
			errs[id] = prog.rank(p, nd, pt, rng, rcs[id])
			finished++
			for finished < n {
				pt.SetDeadline(nd.Eng.Now() + hw.US(100))
				mpi.Recv(p, pt, nil, mpi.AnySource, 1000) // no one sends tag 1000
			}
		})
	}
	if err := c.RunChecked(hw.US(20000)); err != nil {
		return fmt.Errorf("did not end: %v", err)
	}
	for r, rc := range rcs {
		if err := cmp.Or(errs[r], rc.Check()); err != nil {
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
	if prog.Filters != nil {
		for _, f := range prog.Filters[c.Rank()] {
			if err := recv(f); err != nil {
				return err
			}
		}
	} else if err := drawnReceives(p, nd, c, rng, rc, recv); err != nil {
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
// to the rank has been received.
func drawnReceives(p *sim.Proc, nd *hw.Node, c mpi.PT, rng *rand.Rand, rc *matchoracle.Receiver, recv func(matchoracle.Filter) error) error {
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
		switch rng.IntN(5) {
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
		}
		if err != nil {
			return err
		}
	}
	for len(opens) > 0 {
		if err := wait(); err != nil {
			return err
		}
	}
	return nil
}
