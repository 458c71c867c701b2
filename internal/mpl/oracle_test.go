package mpl_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"spam/internal/hw"
	"spam/internal/matchoracle"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// mplProgram is one run of the MPL matching oracle, printed as a Go literal
// when it fails. Each node Sends its messages (with Compute pauses drawn
// from Seed), DrainSends, then receives every message sent to it: with
// Filters, blocking Recvs with those filters in order; without, a receive
// phase drawn from Seed.
type mplProgram struct {
	Seed    uint64
	Sends   [][]matchoracle.Msg    // per node, in send order
	Filters [][]matchoracle.Filter // per node
}

// TestMPLMatchingOracle runs seeded random programs on three nodes and
// checks MPL's matching against the rules a message-passing library owes
// its callers (matchoracle's checker). Each node Sends to the others (drawn
// tags, sizes and pauses), DrainSends, then receives with a drawn mix of
// Recv, TryRecv and up to four outstanding PostRecvs, with AnySource/AnyTag
// filters drawn by matchoracle and Compute pauses, so messages park
// unexpected, arrive whole into posted receives, or complete into a receive
// posted while they were arriving. RunChecked stops a program that does not
// end.
func TestMPLMatchingOracle(t *testing.T) {
	// The sizes sit at MPL's packet boundaries: empty, one byte, one full
	// packet and one byte over, one packet-credit stride (16 packets) and
	// one byte over, the packet window (32 packets), and 88 packets.
	sizes := []int{0, 1, 228, 229, 3648, 3649, 7296, 20000}
	for seed := uint64(1); seed <= 100; seed++ {
		mplProgram{Seed: seed, Sends: matchoracle.Draw(rand.New(rand.NewPCG(seed, 0)), 3, 5, 3, sizes)}.check(t)
	}
}

// check runs prog and fails t if it faults.
func (prog mplProgram) check(t *testing.T) {
	t.Helper()
	if err := prog.run(); err != nil {
		t.Fatalf("%v\n%#v", err, prog)
	}
}

// stream is a program of count messages of size bytes from node 0 to node
// 1 on tag, received in order.
func stream(count, size, tag int) mplProgram {
	prog := mplProgram{Sends: make([][]matchoracle.Msg, 2), Filters: make([][]matchoracle.Filter, 2)}
	for k := range count {
		prog.Sends[0] = append(prog.Sends[0], matchoracle.Msg{Src: 0, Dst: 1, K: k, Tag: tag, Size: size})
		prog.Filters[1] = append(prog.Filters[1], matchoracle.Filter{Src: 0, Tag: tag})
	}
	return prog
}

// TestSendRecvBasic: a 19-byte message taken by an AnySource/AnyTag receive
// reports its sender and tag.
func TestSendRecvBasic(t *testing.T) {
	prog := stream(1, 19, 42)
	prog.Filters[1][0] = matchoracle.Filter{Src: mpl.AnySource, Tag: mpl.AnyTag}
	prog.check(t)
}

// TestTagMatching: the receiver takes tag 8 first although tag 7 arrives
// first.
func TestTagMatching(t *testing.T) {
	mplProgram{
		Sends:   [][]matchoracle.Msg{{{Src: 0, Dst: 1, Tag: 7, Size: 5}, {Src: 0, Dst: 1, K: 1, Tag: 8, Size: 5}}, nil},
		Filters: [][]matchoracle.Filter{nil, {{Src: 0, Tag: 8}, {Src: 0, Tag: 7}}},
	}.check(t)
}

// TestLargeMessage: 100,000 B, 439 packets, through the packet window.
func TestLargeMessage(t *testing.T) {
	stream(1, 100000, 1).check(t)
}

// TestZeroByteMessage: a 0-byte message is delivered with its tag.
func TestZeroByteMessage(t *testing.T) {
	stream(1, 0, 5).check(t)
}

// TestPipelinedSendsAllArrive: 40 queued 500-byte Sends, one message credit
// at a time, all arrive.
func TestPipelinedSendsAllArrive(t *testing.T) {
	stream(40, 500, 9).check(t)
}

// run runs prog on a fresh cluster and checks every node's receives, and
// that no packet was lost: MPL has no retransmission.
func (prog mplProgram) run() error {
	nodes := len(prog.Sends)
	largest := 0
	for _, m := range slices.Concat(prog.Sends...) {
		largest = max(largest, m.Size)
	}
	c := hw.NewCluster(hw.DefaultConfig(nodes))
	sys := mpl.New(c)
	rcs := make([]*matchoracle.Receiver, nodes)
	for id := range nodes {
		rng := rand.New(rand.NewPCG(prog.Seed, uint64(id+1)))
		rcs[id] = matchoracle.NewReceiver(rng, prog.Sends, id)
		c.Spawn(id, "node", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[id]
			for _, m := range prog.Sends[id] {
				if rng.IntN(3) == 0 {
					n.Compute(p, hw.US(float64(rng.IntN(300))))
				}
				ep.Send(p, m.Dst, m.Tag, m.Payload())
			}
			ep.DrainSends(p)
			if prog.Filters == nil {
				oracleReceive(p, n, ep, rng, rcs[id], largest)
				return
			}
			for _, f := range prog.Filters[id] {
				buf := make([]byte, largest)
				seq := rcs[id].Post(f)
				nb, src, tag := ep.Recv(p, f.Src, f.Tag, buf)
				rcs[id].Done(seq, buf, src, tag, nb, false)
			}
		})
	}
	if err := c.RunChecked(hw.US(20000)); err != nil {
		return fmt.Errorf("did not end: %v", err)
	}
	if lost := c.Losses(); lost.TotalLost() != 0 {
		return fmt.Errorf("packets lost: %+v", lost)
	}
	for r, rc := range rcs {
		if err := rc.Check(); err != nil {
			return fmt.Errorf("node %d: %v", r, err)
		}
	}
	return nil
}

// oracleReceive runs one node's receive phase, into buffers of size bytes,
// until every message sent to it has been received.
func oracleReceive(p *sim.Proc, n *hw.Node, ep *mpl.Endpoint, rng *rand.Rand, rc *matchoracle.Receiver, size int) {
	type open struct {
		h   *mpl.RecvHandle
		seq int
		buf []byte
	}
	var opens []open
	waitOldest := func() {
		o := opens[0]
		opens = opens[1:]
		for !o.h.Done() {
			ep.Poll(p)
		}
		nb, src, tag := o.h.Complete(p)
		rc.Done(o.seq, o.buf, src, tag, nb, false)
	}
	for rc.More() {
		switch rng.IntN(6) {
		case 0:
			n.Compute(p, hw.US(float64(rng.IntN(200))))
		case 1:
			// A TryRecv takes only a parked message, which no open receive
			// matches, so it needs no safe filter.
			f, _ := rc.Pick()
			buf := make([]byte, size)
			if nb, src, tag, ok := ep.TryRecv(p, f.Src, f.Tag, buf); ok {
				rc.Done(rc.Post(f), buf, src, tag, nb, false)
			}
		case 2, 3:
			if f, ok := rc.Pick(); ok && len(opens) < 4 {
				buf := make([]byte, size)
				opens = append(opens, open{h: ep.PostRecv(f.Src, f.Tag, buf), seq: rc.Post(f), buf: buf})
			} else if len(opens) > 0 {
				waitOldest()
			}
		case 4:
			if f, ok := rc.Pick(); ok {
				buf := make([]byte, size)
				seq := rc.Post(f)
				nb, src, tag := ep.Recv(p, f.Src, f.Tag, buf)
				rc.Done(seq, buf, src, tag, nb, false)
			} else {
				waitOldest()
			}
		case 5:
			if len(opens) > 0 {
				waitOldest()
			}
		}
	}
	for len(opens) > 0 {
		waitOldest()
	}
}
