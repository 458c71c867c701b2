package mpl_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"spam/internal/hw"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// oracleMsg is the k-th message src sends to dst.
type oracleMsg struct{ src, dst, k, tag, size int }

// payload is m's bytes. The first names the message, (src, k), so the
// checker reads which message a receive got from what it got; the rest are
// a pattern of src, dst, k and the offset.
func (m oracleMsg) payload() []byte {
	b := make([]byte, m.size)
	for i := range b {
		b[i] = byte(i*13 + m.k*7 + m.src*31 + m.dst*101)
	}
	if len(b) > 0 {
		b[0] = byte(m.src<<6 | m.k)
	}
	return b
}

// oracleFilter is a receive's (source, tag), either of which may be a
// wildcard.
type oracleFilter struct{ src, tag int }

func (f oracleFilter) takes(m oracleMsg) bool {
	return (f.src == mpl.AnySource || f.src == m.src) && (f.tag == mpl.AnyTag || f.tag == m.tag)
}

// oracleGot is one completed receive: seq orders receives by when they were
// posted (a TryRecv is posted when called).
type oracleGot struct {
	seq      int
	f        oracleFilter
	src, tag int
	data     []byte
}

// TestMPLMatchingOracle runs seeded random programs on three nodes and
// checks MPL's matching against the rules a message-passing library owes
// its callers. Each node Sends to the others (drawn tags, sizes and pauses),
// DrainSends, then receives with a drawn mix of Recv, TryRecv and up to
// four outstanding PostRecvs, with AnySource/AnyTag filters and Compute
// pauses, so messages park unexpected, arrive whole into posted receives,
// or complete into a receive posted while they were arriving.
//
// Each receive's filter is drawn at run time from the messages the node
// still expects, and is posted only while every open receive is sure to be
// filled whatever the others take: each must match more expected messages
// than there are other open receives that could take one of them. This is
// what makes every program end; RunChecked stops one that does not.
//
// The checker reads each receive's message from its first payload byte (a
// 0-byte message, which has none, is the oldest unclaimed one of its source
// and tag) and checks exactly-once delivery, the bytes, source and tag, and
// each filter against what it got. Order: a receive E posted before a
// receive L, where E's filter takes L's message and both got messages from
// one sender, must have got the older one. That is both order rules at
// once: messages from one sender that match one receive arrive in send
// order, and receives that match one message are filled in post order.
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
	rng := rand.New(rand.NewPCG(seed, 0))
	sends := make([][]oracleMsg, nodes) // per sender, in send order
	want := make([][]oracleMsg, nodes)  // per receiver
	for src := range sends {
		var per [][]oracleMsg
		for dst := 0; dst < nodes; dst++ {
			if dst == src {
				continue
			}
			var q []oracleMsg
			for k := range rng.IntN(5) {
				m := oracleMsg{src: src, dst: dst, k: k, tag: rng.IntN(3),
					size: sizes[rng.IntN(len(sizes))]}
				q = append(q, m)
				want[dst] = append(want[dst], m)
			}
			per = append(per, q)
		}
		// Interleave the destinations, each in its own send order.
		for {
			var live []int
			for i, q := range per {
				if len(q) > 0 {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				break
			}
			i := live[rng.IntN(len(live))]
			sends[src] = append(sends[src], per[i][0])
			per[i] = per[i][1:]
		}
	}

	c := hw.NewCluster(hw.DefaultConfig(nodes))
	sys := mpl.New(c)
	got := make([][]oracleGot, nodes)
	for id := range nodes {
		rng := rand.New(rand.NewPCG(seed, uint64(id+1)))
		c.Spawn(id, "node", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[id]
			for _, m := range sends[id] {
				if rng.IntN(3) == 0 {
					n.Compute(p, hw.US(float64(rng.IntN(300))))
				}
				ep.Send(p, m.dst, m.tag, m.payload())
			}
			ep.DrainSends(p)
			got[id] = oracleReceive(p, n, ep, rng, append([]oracleMsg(nil), want[id]...))
		})
	}
	if err := c.RunChecked(hw.US(20000)); err != nil {
		return fmt.Errorf("did not end: %v", err)
	}
	for r := range nodes {
		if err := checkOracle(want[r], got[r]); err != nil {
			return fmt.Errorf("node %d: %v", r, err)
		}
	}
	return nil
}

// oracleReceive runs one node's receive phase until every message sent to
// it has been received; want is what it still expects.
func oracleReceive(p *sim.Proc, n *hw.Node, ep *mpl.Endpoint, rng *rand.Rand, want []oracleMsg) []oracleGot {
	type open struct {
		h   *mpl.RecvHandle
		seq int
		f   oracleFilter
		buf []byte
	}
	var opens []open
	var got []oracleGot
	seq := 0
	record := func(s int, f oracleFilter, buf []byte, nb, src, tag int) {
		got = append(got, oracleGot{seq: s, f: f, src: src, tag: tag, data: buf[:nb]})
		if nb > 0 {
			src, k := int(buf[0]>>6), int(buf[0]&63)
			for i, m := range want {
				if m.src == src && m.k == k {
					want = append(want[:i], want[i+1:]...)
					return
				}
			}
		}
		for i, m := range want {
			if m.size == 0 && m.src == src && m.tag == tag {
				want = append(want[:i], want[i+1:]...)
				return
			}
		}
	}
	waitOldest := func() {
		o := opens[0]
		opens = opens[1:]
		for !o.h.Done() {
			ep.Poll(p)
		}
		nb, src, tag := o.h.Complete(p)
		record(o.seq, o.f, o.buf, nb, src, tag)
	}
	// safe reports whether every open receive, and one more with filter f,
	// would each match more expected messages than there are other open
	// receives that could take one of those.
	safe := func(f oracleFilter) bool {
		fs := []oracleFilter{f}
		for _, o := range opens {
			fs = append(fs, o.f)
		}
		for i, a := range fs {
			have, rivals := 0, 0
			for _, m := range want {
				if a.takes(m) {
					have++
				}
			}
			for j, b := range fs {
				if j == i {
					continue
				}
				for _, m := range want {
					if a.takes(m) && b.takes(m) {
						rivals++
						break
					}
				}
			}
			if have <= rivals {
				return false
			}
		}
		return true
	}
	// pick draws a filter from an expected message: exact, or with a
	// wildcard source, tag or both. It falls back to the exact filter, and
	// reports false when even that could leave an open receive unfilled.
	pick := func() (oracleFilter, bool) {
		m := want[rng.IntN(len(want))]
		f := oracleFilter{m.src, m.tag}
		exact := f
		switch rng.IntN(4) {
		case 1:
			f.src = mpl.AnySource
		case 2:
			f.tag = mpl.AnyTag
		case 3:
			f = oracleFilter{mpl.AnySource, mpl.AnyTag}
		}
		if safe(f) {
			return f, true
		}
		return exact, safe(exact)
	}
	for len(want) > len(opens) {
		switch rng.IntN(6) {
		case 0:
			n.Compute(p, hw.US(float64(rng.IntN(200))))
		case 1:
			// A TryRecv takes only a parked message, which no open receive
			// matches, so it needs no safe filter.
			f, _ := pick()
			buf := make([]byte, 20000)
			seq++
			if nb, src, tag, ok := ep.TryRecv(p, f.src, f.tag, buf); ok {
				record(seq, f, buf, nb, src, tag)
			}
		case 2, 3:
			if f, ok := pick(); ok && len(opens) < 4 {
				buf := make([]byte, 20000)
				seq++
				opens = append(opens, open{h: ep.PostRecv(f.src, f.tag, buf), seq: seq, f: f, buf: buf})
			} else if len(opens) > 0 {
				waitOldest()
			}
		case 4:
			if f, ok := pick(); ok {
				buf := make([]byte, 20000)
				seq++
				nb, src, tag := ep.Recv(p, f.src, f.tag, buf)
				record(seq, f, buf, nb, src, tag)
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
	return got
}

// checkOracle checks one node's receives against the messages sent to it.
func checkOracle(want []oracleMsg, got []oracleGot) error {
	sent := map[[2]int]oracleMsg{}
	for _, m := range want {
		sent[[2]int{m.src, m.k}] = m
	}
	// Read each receive's message, in post order so a 0-byte message is
	// the oldest unclaimed one of its source and tag.
	byseq := slices.Clone(got)
	slices.SortFunc(byseq, func(a, b oracleGot) int { return cmp.Compare(a.seq, b.seq) })
	msgs := make([]oracleMsg, len(byseq))
	claimed := map[[2]int]bool{}
	for i, g := range byseq {
		var key [2]int
		if len(g.data) > 0 {
			key = [2]int{int(g.data[0] >> 6), int(g.data[0] & 63)}
		} else {
			key = [2]int{-1, -1}
			for _, m := range want {
				if k := [2]int{m.src, m.k}; m.size == 0 && m.src == g.src && m.tag == g.tag && !claimed[k] {
					key = k
					break
				}
			}
		}
		m, ok := sent[key]
		switch {
		case !ok:
			return fmt.Errorf("receive %d got %d bytes (src %d, tag %d) that no one sent", g.seq, len(g.data), g.src, g.tag)
		case claimed[key]:
			return fmt.Errorf("receive %d got message %v a second time", g.seq, key)
		case !bytes.Equal(g.data, m.payload()):
			return fmt.Errorf("receive %d got %d bytes of message %+v, not its bytes", g.seq, len(g.data), m)
		case g.src != m.src || g.tag != m.tag:
			return fmt.Errorf("receive %d reports src %d tag %d for message %+v", g.seq, g.src, g.tag, m)
		case !g.f.takes(m):
			return fmt.Errorf("receive %d with filter %+v got message %+v", g.seq, g.f, m)
		}
		claimed[key] = true
		msgs[i] = m
	}
	if len(claimed) != len(want) {
		return fmt.Errorf("%d of %d messages received", len(claimed), len(want))
	}
	for e := range byseq {
		for l := e + 1; l < len(byseq); l++ {
			if me, ml := msgs[e], msgs[l]; me.src == ml.src && ml.k < me.k && byseq[e].f.takes(ml) {
				return fmt.Errorf("receive %d (filter %+v) got message %d from %d, but the older message %d it matches went to the later receive %d",
					byseq[e].seq, byseq[e].f, me.k, me.src, ml.k, byseq[l].seq)
			}
		}
	}
	return nil
}
