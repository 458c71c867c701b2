package mpl_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"spam/internal/hw"
	"spam/internal/matchoracle"
	"spam/internal/mpl"
	"spam/internal/sim"
)

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
	const programs, nodes = 100, 3
	for seed := uint64(1); seed <= programs; seed++ {
		if err := runOracle(seed, nodes); err != nil {
			t.Fatalf("program %d: %v", seed, err)
		}
	}
}

func runOracle(seed uint64, nodes int) error {
	// The sizes sit at MPL's packet boundaries: empty, one byte, one full
	// packet and one byte over, one packet-credit stride (16 packets) and
	// one byte over, the packet window (32 packets), and 88 packets.
	sizes := []int{0, 1, 228, 229, 3648, 3649, 7296, 20000}
	sends := matchoracle.Draw(rand.New(rand.NewPCG(seed, 0)), nodes, 5, 3, sizes)

	c := hw.NewCluster(hw.DefaultConfig(nodes))
	sys := mpl.New(c)
	rcs := make([]*matchoracle.Receiver, nodes)
	for id := range nodes {
		rng := rand.New(rand.NewPCG(seed, uint64(id+1)))
		rcs[id] = matchoracle.NewReceiver(rng, sends, id)
		c.Spawn(id, "node", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[id]
			for _, m := range sends[id] {
				if rng.IntN(3) == 0 {
					n.Compute(p, hw.US(float64(rng.IntN(300))))
				}
				ep.Send(p, m.Dst, m.Tag, m.Payload())
			}
			ep.DrainSends(p)
			oracleReceive(p, n, ep, rng, rcs[id])
		})
	}
	if err := c.RunChecked(hw.US(20000)); err != nil {
		return fmt.Errorf("did not end: %v", err)
	}
	for r, rc := range rcs {
		if err := rc.Check(); err != nil {
			return fmt.Errorf("node %d: %v", r, err)
		}
	}
	return nil
}

// oracleReceive runs one node's receive phase until every message sent to
// it has been received.
func oracleReceive(p *sim.Proc, n *hw.Node, ep *mpl.Endpoint, rng *rand.Rand, rc *matchoracle.Receiver) {
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
		rc.Done(o.seq, o.buf[:nb], src, tag)
	}
	for rc.More() {
		switch rng.IntN(6) {
		case 0:
			n.Compute(p, hw.US(float64(rng.IntN(200))))
		case 1:
			// A TryRecv takes only a parked message, which no open receive
			// matches, so it needs no safe filter.
			f, _ := rc.Pick()
			buf := make([]byte, 20000)
			if nb, src, tag, ok := ep.TryRecv(p, f.Src, f.Tag, buf); ok {
				rc.Done(rc.Post(f), buf[:nb], src, tag)
			}
		case 2, 3:
			if f, ok := rc.Pick(); ok && len(opens) < 4 {
				buf := make([]byte, 20000)
				opens = append(opens, open{h: ep.PostRecv(f.Src, f.Tag, buf), seq: rc.Post(f), buf: buf})
			} else if len(opens) > 0 {
				waitOldest()
			}
		case 4:
			if f, ok := rc.Pick(); ok {
				buf := make([]byte, 20000)
				seq := rc.Post(f)
				nb, src, tag := ep.Recv(p, f.Src, f.Tag, buf)
				rc.Done(seq, buf[:nb], src, tag)
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
