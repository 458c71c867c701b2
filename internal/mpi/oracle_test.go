package mpi_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"spam/internal/bench"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/matchoracle"
	"spam/internal/mpi"
	"spam/internal/sim"
)

// mpiProgram is one run of the MPI matching oracle, printed as a Go literal
// when it fails. It runs under Plan (the zero Plan is lossless). Each rank
// waits Pause µs, sends its messages, receives every message sent to it,
// waits for its sends and ends in Finalize. With Filters, sends are
// blocking mpi.Sends and the receive phase is blocking receives with those
// filters in order, into buffers of the sizes in Bufs; without, sends are
// Isends waited in a drawn order after the receive phase, which is drawn at
// run time from Seed: matchoracle's filters, up to four open Irecvs waited
// in a drawn order, blocking receives and Compute pauses. Either way the
// sender overwrites each buffer as soon as its send completes, and a
// receive buffer holds the program's largest message unless Bufs sizes it.
// Every rank calls Colls in list order: at its own drawn points of a drawn
// receive phase, the last of them before its open receives are waited, and
// otherwise after its receives. A fixed program with a Name runs as a
// subtest of that name.
type mpiProgram struct {
	Name    string
	Seed    uint64
	Plan    faults.Plan
	Sends   [][]matchoracle.Msg // per rank, in send order
	Pause   []int
	Filters [][]matchoracle.Filter // per rank
	Bufs    [][]int                // per rank with Filters, each receive's buffer size
	Colls   []collective
}

// collective is one collective call. Size is the bytes per rank (per block
// for Gather, Scatter and the Alltoalls); Root is Sendrecv's shift: each
// rank sends to rank + Root and receives from rank − Root. Barrier ignores
// Size and Root, Allreduce and the Alltoalls ignore Root.
type collective struct {
	Op         string
	Root, Size int
}

// collOps are the collectives a program draws from.
var collOps = []string{"Barrier", "Bcast", "Allreduce", "Gather", "Scatter", "AlltoallNaive", "AlltoallPairwise", "Sendrecv"}

// oracleSizes straddle every stack's protocol switches: empty, small, the
// optimized MPI-AM hybrid prefix and MPI-F's eager limit and one byte over,
// one byte over optimized MPI-AM's buffered limit, and 50,000 B.
var oracleSizes = []int{0, 13, 1024, 4096, 4097, 8193, 50000}

// drawProgram draws a program of 2 to 5 ranks, and a StandardPlans entry
// for the stacks that retransmit, from seed.
func drawProgram(seed uint64) mpiProgram {
	rng := rand.New(rand.NewPCG(seed, 0))
	n := 2 + rng.IntN(4)
	plans := faults.StandardPlans(seed)
	prog := mpiProgram{Seed: seed, Plan: *plans[rng.IntN(len(plans))], Sends: matchoracle.Draw(rng, n, 4, 3, oracleSizes), Pause: make([]int, n)}
	for i := range prog.Pause {
		prog.Pause[i] = rng.IntN(1000)
	}
	for range 1 + rng.IntN(3) {
		prog.Colls = append(prog.Colls, collective{collOps[rng.IntN(len(collOps))], rng.IntN(n), oracleSizes[rng.IntN(len(oracleSizes))]})
	}
	return prog
}

// TestMPIMatchingOracle runs 200 drawn programs on each of the three
// stacks, the MPI-AM ones under their drawn fault plans, and checks every
// receive against matchoracle's model (exactly once, filters, bytes and
// status, and both non-overtaking rules) and every collective's result
// against its model. Every plan must fire on each MPI-AM stack. Once a
// program fails the rest return at once, and the lowest-numbered failure
// is reported.
func TestMPIMatchingOracle(t *testing.T) {
	const programs = 200
	type outcome struct {
		err   error
		fired string // the stack and plan, when the plan fired
	}
	var failed atomic.Bool
	outs := bench.Sweep(bench.Setup{}, programs*len(stacks), func(_ bench.Setup, i int) outcome {
		if failed.Load() {
			return outcome{}
		}
		st, prog := stacks[i%len(stacks)], drawProgram(uint64(i/len(stacks)+1))
		if i%len(stacks) >= 2 {
			prog.Plan = faults.Plan{} // MPL does not retransmit
		}
		c, err := prog.run(st.pts)
		if err != nil {
			failed.Store(true)
			return outcome{err: fmt.Errorf("%s: %v\n%#v", st.name, err, prog)}
		}
		if c.Switch.Faults.Total() == 0 {
			return outcome{}
		}
		return outcome{fired: st.name + " " + prog.Plan.Name}
	})
	fired := make(map[string]bool)
	for _, o := range outs {
		if o.err != nil {
			t.Fatal(o.err)
		}
		fired[o.fired] = true
	}
	for _, st := range stacks[:2] {
		for _, plan := range faults.StandardPlans(0) {
			if !fired[st.name+" "+plan.Name] {
				t.Errorf("no program on %s fired plan %s", st.name, plan.Name)
			}
		}
	}
}

// oracleCase runs fixed programs on every stack.
func oracleCase(t *testing.T, progs ...mpiProgram) {
	eachStack(t, func(t *testing.T, mk func(*hw.Cluster) []mpi.PT) {
		for _, prog := range progs {
			check := func(t *testing.T) {
				if _, err := prog.run(mk); err != nil {
					t.Fatalf("%v\n%#v", err, prog)
				}
			}
			if prog.Name == "" {
				check(t)
			} else {
				t.Run(prog.Name, check)
			}
		}
	})
}

// chaosCase runs prog on both MPI-AM stacks, lossless and then, as a
// subtest per plan, under each StandardPlans(seed) entry: every plan must
// fire, and a faulted run must end within 40× the simulated time of the
// lossless one.
func chaosCase(t *testing.T, seed uint64, prog mpiProgram) {
	var lossless [2]sim.Time
	for s, st := range stacks[:2] {
		c, err := prog.run(st.pts)
		if err != nil {
			t.Fatalf("%s: %v\n%#v", st.name, err, prog)
		}
		lossless[s] = c.Eng.Now()
	}
	for _, plan := range faults.StandardPlans(seed) {
		t.Run(plan.Name, func(t *testing.T) {
			prog.Plan = *plan
			for s, st := range stacks[:2] {
				c, err := prog.run(st.pts)
				switch {
				case err != nil:
					t.Errorf("%s: %v\n%#v", st.name, err, prog)
				case c.Switch.Faults.Total() == 0:
					t.Errorf("%s: the plan never fired\n%#v", st.name, prog)
				case c.Eng.Now() > 40*lossless[s]:
					t.Errorf("%s: ended at %v, over 40× the lossless %v\n%#v", st.name, c.Eng.Now(), lossless[s], prog)
				}
			}
		})
	}
}

// TestTagAndSourceMatching: rank 2 receives tag 6 from any source first,
// although rank 0's tag-5 message arrives 200 µs before rank 1's.
func TestTagAndSourceMatching(t *testing.T) {
	oracleCase(t, mpiProgram{
		Sends:   [][]matchoracle.Msg{{{Src: 0, Dst: 2, Tag: 5, Size: 1}}, {{Src: 1, Dst: 2, Tag: 6, Size: 1}}, nil},
		Pause:   []int{0, 200, 0},
		Filters: [][]matchoracle.Filter{nil, nil, {{Src: mpi.AnySource, Tag: 6}, {Src: mpi.AnySource, Tag: mpi.AnyTag}}},
	})
}

// stream is a program of count blocking sends of size bytes from rank 0 to
// rank 1 on tag, received in order.
func stream(count, size, tag int) mpiProgram {
	prog := mpiProgram{Sends: make([][]matchoracle.Msg, 2), Pause: []int{0, 0}, Filters: make([][]matchoracle.Filter, 2)}
	for k := range count {
		prog.Sends[0] = append(prog.Sends[0], matchoracle.Msg{Src: 0, Dst: 1, K: k, Tag: tag, Size: size})
		prog.Filters[1] = append(prog.Filters[1], matchoracle.Filter{Src: 0, Tag: tag})
	}
	return prog
}

// TestSendRecvAcrossProtocolSizes: one blocking message at sizes straddling
// every protocol boundary: tiny buffered or eager, bin-sized, MPI-F's 4 KB
// eager switch, first-fit sized, the hybrid region, pure rendezvous and
// multi-chunk.
func TestSendRecvAcrossProtocolSizes(t *testing.T) {
	var progs []mpiProgram
	for _, size := range []int{0, 1, 13, 64, 1024, 1500, 4096, 4097, 8192, 8193, 16384, 16400, 40000, 100000, 200000} {
		progs = append(progs, stream(1, size, 42))
		progs[len(progs)-1].Name = fmt.Sprint(size)
	}
	oracleCase(t, progs...)
}

// TestOrderingPreserved: 150 blocking sends on one tag arrive in order, at
// 4 B (buffered or eager on every stack) and 6,000 B (rendezvous on MPI-F).
func TestOrderingPreserved(t *testing.T) {
	oracleCase(t, stream(150, 4, 3), stream(150, 6000, 3))
}

// TestBufferRecyclingManyMessages: 400 × 900 B is far more than MPI-AM's
// 16 KB buffered region holds, so the free protocol must recycle its space.
func TestBufferRecyclingManyMessages(t *testing.T) {
	oracleCase(t, stream(400, 900, 1))
}

// TestUnexpectedMessages: the message arrives before its receive is posted,
// at buffered or eager and at rendezvous sizes, and must not change when the
// sender overwrites its buffer as soon as the blocking Send returns.
func TestUnexpectedMessages(t *testing.T) {
	var progs []mpiProgram
	for _, size := range []int{100, 512, 50000} {
		progs = append(progs, stream(1, size, 7))
		progs[len(progs)-1].Pause[1] = 3000
	}
	oracleCase(t, progs...)
}

// TestShortBufferTruncates: a receive buffer shorter than its message ends
// in ErrTruncate with the sent status, posted or unexpected (the receiver
// 3,000 µs late), in every protocol: buffered or eager (8 and 100 B),
// MPI-AM's buffered and hybrid sizes and MPI-F's rendezvous (12,000 B, once
// into a buffer shorter than optimized MPI-AM's 4 KB hybrid prefix), and
// pure rendezvous (50,000 B). The message is consumed whole, so the blocking
// sender completes, and the next message on the same source and tag, one
// that fits, arrives intact.
func TestShortBufferTruncates(t *testing.T) {
	var progs []mpiProgram
	for _, tc := range []struct{ msg, buf int }{{8, 0}, {100, 50}, {12000, 6000}, {12000, 2000}, {50000, 25000}} {
		for late, when := range []string{"posted", "unexpected"} {
			progs = append(progs, mpiProgram{
				Name:    fmt.Sprintf("%d-into-%d/%s", tc.msg, tc.buf, when),
				Sends:   [][]matchoracle.Msg{{{Src: 0, Dst: 1, Tag: 4, Size: tc.msg}, {Src: 0, Dst: 1, K: 1, Tag: 4, Size: tc.buf}}, nil},
				Pause:   []int{0, 3000 * late},
				Filters: [][]matchoracle.Filter{nil, {{Src: 0, Tag: 4}, {Src: 0, Tag: 4}}},
				Bufs:    [][]int{nil, {tc.buf, tc.buf}},
			})
		}
	}
	oracleCase(t, progs...)
}

// TestSendrecvRing: four ranks shift 4 bytes one rank around a ring.
func TestSendrecvRing(t *testing.T) {
	oracleCase(t, mpiProgram{Sends: make([][]matchoracle.Msg, 4), Pause: make([]int, 4), Colls: []collective{{"Sendrecv", 1, 4}}})
}

// TestCollectives: five ranks, whose binomial trees are three levels deep
// and not full, call the collectives once rank 0 has received rank 4's
// message (whose payload must name its sender as 4).
func TestCollectives(t *testing.T) {
	oracleCase(t, mpiProgram{Sends: [][]matchoracle.Msg{nil, nil, nil, nil, {{Src: 4, Dst: 0, Tag: 1, Size: 13}}}, Pause: make([]int, 5),
		Filters: [][]matchoracle.Filter{{{Src: 4, Tag: 1}}, nil, nil, nil, nil},
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

// TestChaosPt2pt: a four-rank Sendrecv ring in every protocol regime (tiny
// buffered, bin-sized, hybrid, pure rendezvous, multi-chunk) under each
// standard fault plan.
func TestChaosPt2pt(t *testing.T) {
	chaosCase(t, 1001, mpiProgram{Sends: make([][]matchoracle.Msg, 4), Pause: make([]int, 4),
		Colls: []collective{{"Sendrecv", 1, 13}, {"Sendrecv", 1, 1024}, {"Sendrecv", 1, 4096}, {"Sendrecv", 1, 8193}, {"Sendrecv", 1, 40000}}})
}

// TestChaosCollectives: Bcast, Allreduce, Alltoall and Barrier on four
// ranks under each standard fault plan.
func TestChaosCollectives(t *testing.T) {
	chaosCase(t, 2002, mpiProgram{Sends: make([][]matchoracle.Msg, 4), Pause: make([]int, 4),
		Colls: []collective{{"Bcast", 0, 4096}, {"Allreduce", 0, 1024}, {"AlltoallNaive", 0, 2048}, {"Barrier", 0, 0}}})
}

// TestProbeHorizon: drawn programs 59 and 70 on unoptimized MPI-AM and 87
// on optimized retransmitted without a packet lost: the first ack after a
// keep-alive probe sent every packet it did not cover again, those sent
// after the probe too, which were still on the wire.
func TestProbeHorizon(t *testing.T) {
	for _, seed := range []uint64{59, 70, 87} {
		prog := drawProgram(seed)
		prog.Plan = faults.Plan{}
		for _, st := range stacks[:2] {
			var pts []mpi.PT
			_, err := prog.run(func(c *hw.Cluster) []mpi.PT { pts = st.pts(c); return pts })
			for r := range pts {
				if n := pts[r].(*mpi.Comm).AMStats().Retransmits; err == nil && n > 0 {
					err = fmt.Errorf("rank %d retransmitted %d packets", r, n)
				}
			}
			if err != nil {
				t.Errorf("%s: %v\n%#v", st.name, err, prog)
			}
		}
	}
}

// TestBurstAfterTraffic: drawn program 111 on unoptimized MPI-AM under
// burst, whose burst begins 2 ms after the last data packet, with the
// answer to rank 1's first keep-alive probe. Counted in packets alone, it
// went on to drop the next seven probes, over half a second, until rank 1
// declared live rank 0 dead.
func TestBurstAfterTraffic(t *testing.T) {
	prog := mpiProgram{Seed: 111, Plan: faults.Plan{Name: "burst", Seed: 112, Rules: []faults.Rule{{Action: hw.ActDrop, Rate: 0.004, Burst: 8}}},
		Sends: [][]matchoracle.Msg{{{Src: 0, Dst: 1, Tag: 1, Size: 13}, {Src: 0, Dst: 1, K: 1, Size: 4096}, {Src: 0, Dst: 1, K: 2, Tag: 2}}, nil},
		Pause: []int{411, 390}, Colls: []collective{{"Gather", 1, 13}, {"Bcast", 0, 0}, {"Gather", 0, 1024}}}
	c, err := prog.run(stacks[0].pts)
	if err == nil && c.Switch.Faults.Dropped != 1 {
		err = fmt.Errorf("the burst dropped %d packets, not the probe's answer alone", c.Switch.Faults.Dropped)
	}
	if err != nil {
		t.Fatalf("%v\n%#v", err, prog)
	}
}

// TestWildcardSkipsCollectives: rank 0's open AnySource/AnyTag receive must
// leave rank 1's Barrier message to the Barrier and take the tag-7 message
// rank 1 sends once the Barrier is over.
func TestWildcardSkipsCollectives(t *testing.T) {
	prog := mpiProgram{Sends: [][]matchoracle.Msg{nil, {{Src: 1, Dst: 0, Tag: 7, Size: 13}}}}
	eachStack(t, func(t *testing.T, mk func(*hw.Cluster) []mpi.PT) {
		_, err := runRanks(prog, mk, func(p *sim.Proc, _ *hw.Node, c mpi.PT, _ *rand.Rand, rc *matchoracle.Receiver) error {
			if c.Rank() == 1 {
				if err := mpi.Barrier(p, c); err != nil {
					return err
				}
				return mpi.Send(p, c, prog.Sends[1][0].Payload(), 0, 7)
			}
			f := matchoracle.Filter{Src: mpi.AnySource, Tag: mpi.AnyTag}
			buf := make([]byte, 64)
			seq, req := rc.Post(f), c.Irecv(p, buf, f.Src, f.Tag)
			berr := mpi.Barrier(p, c)
			st, err := c.Wait(p, req)
			return cmp.Or(berr, received(rc, c, seq, buf, st, err))
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// run runs prog on a fresh cluster over the stack mk builds, under its
// plan, and checks every rank's receives and collectives.
func (prog mpiProgram) run(mk func(*hw.Cluster) []mpi.PT) (*hw.Cluster, error) {
	return runRanks(prog, mk, prog.rank)
}

// oracleBudget bounds a program in simulated time, every blocking call of
// its body and then its Finalize: 0.2 s, where the longest program ends by
// 0.06 s.
var oracleBudget = hw.US(200000)

// runRanks runs body on every rank of a fresh cluster over the stack mk
// builds, under prog's plan, with each rank's receiver for prog's sends,
// then Finalize, and checks every rank's receives.
func runRanks(prog mpiProgram, mk func(*hw.Cluster) []mpi.PT,
	body func(p *sim.Proc, nd *hw.Node, c mpi.PT, rng *rand.Rand, rc *matchoracle.Receiver) error) (*hw.Cluster, error) {
	n := len(prog.Sends)
	c := hw.NewCluster(hw.DefaultConfig(n))
	prog.Plan.Apply(c)
	rcs := make([]*matchoracle.Receiver, n)
	errs := make([]error, n)
	pts := mk(c)
	for id, pt := range pts {
		rng := rand.New(rand.NewPCG(prog.Seed, uint64(id+1)))
		rcs[id] = matchoracle.NewReceiver(rng, prog.Sends, id)
		c.Spawn(id, "mpi", func(p *sim.Proc, nd *hw.Node) {
			pt.SetDeadline(nd.Eng.Now() + oracleBudget)
			err := body(p, nd, pt, rng, rcs[id])
			errs[id] = cmp.Or(err, pt.Finalize(p, oracleBudget))
		})
	}
	// The watchdog outlasts a body that times out and its Finalize, so a
	// program that hangs reports the calls that timed out.
	if err := c.RunChecked(3 * oracleBudget); err != nil {
		return c, fmt.Errorf("did not end: %v", err)
	}
	for r, rc := range rcs {
		if err := errors.Join(errs[r], rc.Check()); err != nil {
			return c, fmt.Errorf("rank %d: %v", r, err)
		}
		// No program kills a node, so a peer declared dead was alive.
		if am, ok := pts[r].(*mpi.Comm); ok && am.AMStats().DeadPeers > 0 {
			return c, fmt.Errorf("rank %d declared %d live peers dead", r, am.AMStats().DeadPeers)
		}
	}
	return c, nil
}

// received hands a finished receive to the checker. An ErrTruncate at this
// rank from the message's sender is an outcome the checker judges; any
// other error fails the rank.
func received(rc *matchoracle.Receiver, c mpi.PT, seq int, buf []byte, st mpi.Status, err error) error {
	var me *mpi.Error
	trunc := errors.As(err, &me) && me.Code == mpi.ErrTruncate && me.Rank == c.Rank() && me.Peer == st.Source
	if err != nil && !trunc {
		return err
	}
	rc.Done(seq, buf, st.Source, st.Tag, st.Size, trunc)
	return nil
}

// rank runs one rank's part of prog.
func (prog mpiProgram) rank(p *sim.Proc, nd *hw.Node, c mpi.PT, rng *rand.Rand, rc *matchoracle.Receiver) error {
	invert := func(b []byte) {
		for i := range b {
			b[i] = ^b[i]
		}
	}
	largest := 0
	for _, m := range slices.Concat(prog.Sends...) {
		largest = max(largest, m.Size)
	}
	p.Advance(hw.US(float64(prog.Pause[c.Rank()])))
	var sends []*mpi.Request
	var bufs [][]byte
	for _, m := range prog.Sends[c.Rank()] {
		buf := m.Payload()
		if prog.Filters == nil {
			sends, bufs = append(sends, c.Isend(p, buf, m.Dst, m.Tag)), append(bufs, buf)
		} else if err := mpi.Send(p, c, buf, m.Dst, m.Tag); err != nil {
			return err
		} else {
			invert(buf)
		}
	}
	recv := func(f matchoracle.Filter, size int) error {
		buf := make([]byte, size)
		seq := rc.Post(f)
		st, err := mpi.Recv(p, c, buf, f.Src, f.Tag)
		return received(rc, c, seq, buf, st, err)
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
		for i, f := range prog.Filters[c.Rank()] {
			size := largest
			if prog.Bufs != nil {
				size = prog.Bufs[c.Rank()][i]
			}
			if err := recv(f, size); err != nil {
				return err
			}
		}
	} else if err := drawnReceives(p, nd, c, rng, rc, largest, recv, colls); err != nil {
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

// drawnReceives is a drawn receive phase into buffers of size bytes: it
// ends when every message sent to the rank has been received, and calls the
// collectives left before it waits for its last open receives.
func drawnReceives(p *sim.Proc, nd *hw.Node, c mpi.PT, rng *rand.Rand, rc *matchoracle.Receiver, size int,
	recv func(matchoracle.Filter, int) error, colls func(all bool) error) error {
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
		return received(rc, c, o.seq, o.buf, st, err)
	}
	for rc.More() {
		var err error
		switch rng.IntN(6) {
		case 0:
			nd.Compute(p, hw.US(float64(rng.IntN(200))))
		case 1, 2:
			if f, ok := rc.Pick(); ok && len(opens) < 4 {
				buf := make([]byte, size)
				opens = append(opens, open{req: c.Irecv(p, buf, f.Src, f.Tag), seq: rc.Post(f), buf: buf})
			} else if len(opens) > 0 {
				err = wait()
			}
		case 3:
			if f, ok := rc.Pick(); ok {
				err = recv(f, size)
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
		all := make([]byte, 0, n*col.Size)
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
	case "Sendrecv":
		to, from, tag := (me+col.Root)%n, (me+n-col.Root)%n, c.NextCollTag()
		got, want = make([]byte, col.Size), block(from, me)
		var st mpi.Status
		if st, err = mpi.Sendrecv(p, c, block(me, to), to, tag, got, from, tag); err == nil && st != (mpi.Status{Source: from, Tag: tag, Size: col.Size}) {
			err = fmt.Errorf("status %+v", st)
		}
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
