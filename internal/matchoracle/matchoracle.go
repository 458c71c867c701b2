// Package matchoracle is the matching model the drawn-program oracles of
// internal/mpl and internal/mpi share (MPI-1.1 §3.5, on completed runs). A
// message's bytes name its sender and send index, so the checker reads each
// match from what a receive got. Filters are drawn at run time from the
// messages a node still expects, and a receive is posted only while every
// open one is sure to be filled: each must match more expected messages than
// there are other open receives that could take one of them, which is what
// makes every drawn program end.
package matchoracle

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"

	"spam/internal/mpl"
)

// Msg is the K-th message Src sends to Dst.
type Msg struct{ Src, Dst, K, Tag, Size int }

// Payload is m's bytes: the first two name Src (below 8) and K (below 8,192;
// modulo 32 in a one-byte message), the rest are a pattern of Src, Dst, K
// and the offset.
func (m Msg) Payload() []byte {
	b := make([]byte, m.Size)
	for i := range min(m.Size, 256) {
		b[i] = byte(i*13 + m.K*7 + m.Src*31 + m.Dst*101)
	}
	for i := 256; i < m.Size; i *= 2 {
		copy(b[i:], b[:i]) // the pattern repeats every 256 bytes
	}
	if len(b) > 0 {
		b[0] = byte(m.Src<<5 | m.K&31)
	}
	if len(b) > 1 {
		b[1] = byte(m.K >> 5)
	}
	return b
}

// Filter is a receive's source and tag, either of which may be a wildcard.
type Filter struct{ Src, Tag int }

// takes is the wildcard rule, written apart from the code it checks.
func (f Filter) takes(m Msg) bool {
	return (f.Src == mpl.AnySource || f.Src == m.Src) && (f.Tag == m.Tag || f.Tag == mpl.AnyTag && m.Tag >= 0)
}

// Draw draws each of n nodes' sends, in send order: fewer than perPair
// messages to each other node, in a drawn interleaving, with tags below
// tags and sizes from sizes.
func Draw(rng *rand.Rand, n, perPair, tags int, sizes []int) [][]Msg {
	sends := make([][]Msg, n)
	for src := range sends {
		var dsts []int
		for dst := range n {
			if dst == src {
				continue
			}
			for range rng.IntN(perPair) {
				dsts = append(dsts, dst)
			}
		}
		rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
		k := make([]int, n)
		for _, dst := range dsts {
			sends[src] = append(sends[src], Msg{src, dst, k[dst], rng.IntN(tags), sizes[rng.IntN(len(sizes))]})
			k[dst]++
		}
	}
	return sends
}

// got is one receive: seq orders it by posting, src, tag and size are its
// status, and data is what its room-byte buffer holds (nothing if trunc).
type got struct {
	seq                  int
	f                    Filter
	src, tag, size, room int
	data                 []byte
	trunc                bool
}

// Receiver is one node's receive phase: the filter draw while it runs and
// the check once it is over.
type Receiver struct {
	rng        *rand.Rand
	sent, want []Msg // every message sent to the node; those not yet received
	open, done []got
}

// NewReceiver starts node dst's receive phase of the program sends.
func NewReceiver(rng *rand.Rand, sends [][]Msg, dst int) *Receiver {
	r := &Receiver{rng: rng}
	for _, m := range slices.Concat(sends...) {
		if m.Dst == dst {
			r.sent = append(r.sent, m)
		}
	}
	r.want = slices.Clone(r.sent)
	return r
}

// More reports whether the node expects more messages than it has receives
// open.
func (r *Receiver) More() bool { return len(r.want) > len(r.open) }

// Pick draws a filter from an expected message: exact, or with a wildcard
// source, tag or both. It falls back to the exact filter, and reports false
// when even that could leave an open receive unfilled.
func (r *Receiver) Pick() (Filter, bool) {
	m := r.want[r.rng.IntN(len(r.want))]
	exact := Filter{m.Src, m.Tag}
	f := [4]Filter{exact, {mpl.AnySource, m.Tag}, {m.Src, mpl.AnyTag}, {mpl.AnySource, mpl.AnyTag}}[r.rng.IntN(4)]
	if r.safe(f) {
		return f, true
	}
	return exact, r.safe(exact)
}

// safe reports whether every open receive, and one more with filter f,
// would each match more expected messages than there are other open
// receives that could take one of those.
func (r *Receiver) safe(f Filter) bool {
	fs := []Filter{f}
	for _, o := range r.open {
		fs = append(fs, o.f)
	}
	for i, a := range fs {
		have, rivals := 0, 0
		for _, m := range r.want {
			if a.takes(m) {
				have++
			}
		}
		for j, b := range fs {
			if j != i && slices.ContainsFunc(r.want, func(m Msg) bool { return a.takes(m) && b.takes(m) }) {
				rivals++
			}
		}
		if have <= rivals {
			return false
		}
	}
	return true
}

// Post opens a receive with filter f and returns its sequence number.
func (r *Receiver) Post(f Filter) int {
	seq := len(r.open) + len(r.done) + 1
	r.open = append(r.open, got{seq: seq, f: f})
	return seq
}

// Done closes receive seq into buf, with its status and truncation error.
func (r *Receiver) Done(seq int, buf []byte, src, tag, size int, trunc bool) {
	i := slices.IndexFunc(r.open, func(g got) bool { return g.seq == seq })
	g := r.open[i]
	r.open = slices.Delete(r.open, i, i+1)
	g.src, g.tag, g.size, g.room, g.trunc = src, tag, size, len(buf), trunc
	if !trunc {
		g.data = buf[:min(size, len(buf))]
	}
	r.done = append(r.done, g)
	if i := slices.IndexFunc(r.want, func(m Msg) bool { return names(g, m) }); i >= 0 {
		r.want = slices.Delete(r.want, i, i+1)
	}
}

// names reports whether receive g's bytes name m. A receive that holds no
// bytes (an empty or a truncated one) names every message of its status's
// source, tag and size; it got the oldest one no earlier receive claimed.
func names(g got, m Msg) bool {
	if len(g.data) == 0 {
		return m.Src == g.src && m.Tag == g.tag && m.Size == g.size
	}
	k := int(g.data[0] & 31)
	if len(g.data) > 1 {
		k |= int(g.data[1]) << 5
	}
	return m.Src == int(g.data[0]>>5) && m.K == k
}

// Check checks the finished phase. Every message sent to the node is
// received exactly once, with its bytes, source and tag, by a receive whose
// filter takes it, and ends in a truncation error exactly when the message
// is longer than its buffer. Order: a receive E posted before a receive L,
// where E's filter takes L's message and both got messages from one sender,
// must have got the older one. That is both order rules at once: messages
// from one sender that match one receive arrive in send order, and receives
// that match one message are filled in post order.
func (r *Receiver) Check() error {
	done := slices.Clone(r.done)
	slices.SortFunc(done, func(a, b got) int { return a.seq - b.seq })
	claimed := make([]bool, len(r.sent))
	msgs := make([]Msg, len(done))
	for i, g := range done {
		j := -1
		for k, m := range r.sent {
			if names(g, m) && (len(g.data) > 0 || !claimed[k]) {
				j = k
				break
			}
		}
		if j < 0 {
			return fmt.Errorf("receive %d got %d bytes (src %d, tag %d, size %d) that no one sent", g.seq, len(g.data), g.src, g.tag, g.size)
		}
		m := r.sent[j]
		switch {
		case claimed[j]:
			return fmt.Errorf("receive %d got message %+v a second time", g.seq, m)
		case g.trunc != (m.Size > g.room) || !g.trunc && !bytes.Equal(g.data, m.Payload()):
			return fmt.Errorf("receive %d (%d-byte buffer, truncated %v) got %d bytes of message %+v, not its bytes",
				g.seq, g.room, g.trunc, len(g.data), m)
		case g.src != m.Src || g.tag != m.Tag:
			return fmt.Errorf("receive %d reports src %d tag %d for message %+v", g.seq, g.src, g.tag, m)
		case !g.f.takes(m):
			return fmt.Errorf("receive %d with filter %+v got message %+v", g.seq, g.f, m)
		}
		claimed[j], msgs[i] = true, m
	}
	if len(done) != len(r.sent) {
		return fmt.Errorf("%d of %d messages received", len(done), len(r.sent))
	}
	for e := range done {
		for l := e + 1; l < len(done); l++ {
			if me, ml := msgs[e], msgs[l]; me.Src == ml.Src && ml.K < me.K && done[e].f.takes(ml) {
				return fmt.Errorf("receive %d (filter %+v) got message %d from %d, but the older message %d it matches went to the later receive %d",
					done[e].seq, done[e].f, me.K, me.Src, ml.K, done[l].seq)
			}
		}
	}
	return nil
}
