// Package faults turns fault plans into the switch's fault hook. A Plan is a
// plain value: a name, a seed, a list of Rules and a list of fail-stop node
// kills. Each Rule matches a subset of packets (by protocol class, endpoints
// and time window) and fires one hw.FaultAction at some rate: drop (alone or
// in bursts), duplicate, delay-based reorder, bit corruption, or a degraded
// (slower) link. A plan is written as a Go literal, and fmt's %#v prints the
// literal that rebuilds it, so a failing chaos run can be pasted into a test.
//
// Plans are deterministic: the same plan, seed, and workload produce the same
// injected faults on every run, so chaos tests can assert exact end-to-end
// checksums against a lossless baseline.
package faults

import (
	"slices"

	"spam/internal/hw"
	"spam/internal/sim"
)

// Rule matches a subset of packets and fires one fault action at a given
// rate.
type Rule struct {
	Action hw.FaultAction
	// Rate is the firing probability per matching packet; 1 fires on every
	// one, and 0 never fires.
	Rate float64
	// Burst > 1 makes firings come in runs: once the rule fires, the next
	// Burst-1 matching packets fire too, if they come within burstSpan.
	// Bursts model the SP's realistic failure, a route or adapter hiccup
	// losing consecutive packets, which exercises go-back-N much harder
	// than independent loss.
	Burst int
	// Delay is the fixed extra latency of an hw.ActDelay verdict; packets
	// sent after a delayed one overtake it in the fabric.
	Delay sim.Time
	// Slowdown > 1 also holds each delayed packet for Slowdown-1 extra
	// transmission times, as if the link ran at 1/Slowdown of its nominal
	// bandwidth. Compile panics on a nonzero Slowdown that is not > 1.
	Slowdown float64

	// The filters. An empty Classes, Srcs or Dsts matches any class or node.
	Classes    []string // protocol classes (hw.Packet.Class): "request", "reply", "chunk", "ack", ...
	Srcs, Dsts []int    // injecting and destination nodes
	From       sim.Time // window start (inclusive)
	Until      sim.Time // window end (exclusive); 0 = forever
}

func (r *Rule) matches(now sim.Time, pkt *hw.Packet) bool {
	if len(r.Srcs) > 0 && !slices.Contains(r.Srcs, pkt.Src) {
		return false
	}
	if len(r.Dsts) > 0 && !slices.Contains(r.Dsts, pkt.Dst) {
		return false
	}
	if now < r.From || (r.Until > 0 && now >= r.Until) {
		return false
	}
	return len(r.Classes) == 0 || slices.Contains(r.Classes, pkt.Class())
}

// NodeKill fail-stops one node at a simulated time: from At on, the node's
// adapter delivers nothing and sends nothing on to the switch.
type NodeKill struct {
	Node int
	At   sim.Time
}

// Plan is a named, seeded collection of rules plus fail-stop node kills.
// Rules are consulted in order per packet; the first rule that matches and
// fires decides the verdict.
type Plan struct {
	Name  string
	Seed  uint64
	Rules []Rule
	Kills []NodeKill
}

// burstSpan bounds a burst in time as Burst bounds it in packets: a hiccup
// is over in no longer than the blackout plan's window. Counted in packets
// alone, a burst that begins once traffic has died down would drop a
// keep-alive probe's answer and every probe after it, over half a second,
// until AM declares the live peer dead.
const burstSpan = 300 * hw.Microsecond

// verdict runs the plan's rule list against one packet using the given
// per-rule random streams, burst counters and burst ends.
func (p *Plan) verdict(now sim.Time, pkt *hw.Packet, rngs []*sim.Rand, burstLeft []int, burstEnd []sim.Time) hw.Verdict {
	for i := range p.Rules {
		r := &p.Rules[i]
		if !r.matches(now, pkt) {
			continue
		}
		fired := false
		if r.Burst > 1 {
			if burstLeft[i] > 0 && now < burstEnd[i] {
				burstLeft[i]--
				fired = true
			} else if rngs[i].Float64() < r.Rate {
				burstLeft[i] = r.Burst - 1
				burstEnd[i] = now + burstSpan
				fired = true
			}
		} else if r.Rate >= 1 || rngs[i].Float64() < r.Rate {
			fired = true
		}
		if !fired {
			continue
		}
		d := r.Delay
		if r.Slowdown > 0 {
			perByteNS := (r.Slowdown - 1) * 1e9 / hw.DefaultSwitch().LinkBPS
			d += sim.Time(perByteNS * float64(pkt.WireBytes()))
		}
		return hw.Verdict{Action: r.Action, Delay: d}
	}
	return hw.Verdict{}
}

// Compile lowers the plan into a switch fault hook. Each rule gets its own
// random stream forked deterministically from the plan seed, so adding a
// rule does not perturb the firing pattern of the rules before it.
func (p *Plan) Compile(eng *sim.Engine) hw.FaultFunc {
	master := sim.NewRand(p.Seed)
	rngs := make([]*sim.Rand, len(p.Rules))
	burstLeft := make([]int, len(p.Rules))
	burstEnd := make([]sim.Time, len(p.Rules))
	for i := range p.Rules {
		if s := p.Rules[i].Slowdown; s != 0 && !(s > 1) {
			panic("faults: a rule's Slowdown must be 0 or > 1")
		}
		rngs[i] = master.Fork()
	}
	return func(pkt *hw.Packet) hw.Verdict {
		return p.verdict(eng.Now(), pkt, rngs, burstLeft, burstEnd)
	}
}

// Apply installs the compiled plan on the cluster's switch and arms its
// node kills. A nil plan clears the fault hook (the lossless baseline).
func (p *Plan) Apply(c *hw.Cluster) {
	if p == nil {
		c.Switch.Fault = nil
		return
	}
	c.Switch.Fault = p.Compile(c.Eng)
	for _, k := range p.Kills { // time-based state, not scheduled events
		c.Kill(k.Node, k.At)
	}
}

// StandardPlans returns the canonical chaos suite: one plan per fault kind,
// all derived from seed. Soak tests run every workload under each of these
// and assert end-to-end checksums equal to the lossless run.
func StandardPlans(seed uint64) []*Plan {
	return []*Plan{
		{Name: "drop2pct", Seed: seed, Rules: []Rule{{Action: hw.ActDrop, Rate: 0.02}}},
		{Name: "burst", Seed: seed + 1, Rules: []Rule{{Action: hw.ActDrop, Rate: 0.004, Burst: 8}}},
		// Duplicates exercise the receive window's duplicate suppression.
		{Name: "duplicate", Seed: seed + 2, Rules: []Rule{{Action: hw.ActDuplicate, Rate: 0.03}}},
		{Name: "reorder", Seed: seed + 3, Rules: []Rule{{Action: hw.ActDelay, Rate: 0.05, Delay: 25 * hw.Microsecond}}},
		// The wire checksum must catch every corruption; the sender's
		// retransmission machinery recovers the damaged packet.
		{Name: "corrupt", Seed: seed + 4, Rules: []Rule{{Action: hw.ActCorrupt, Rate: 0.02}}},
		// A link or node temporarily vanishes. Recovery relies on the
		// keep-alive probes once the window closes.
		{Name: "blackout", Seed: seed + 5, Rules: []Rule{
			{Action: hw.ActDrop, Rate: 1, From: 50 * hw.Microsecond, Until: 350 * hw.Microsecond}}},
		{Name: "degraded", Seed: seed + 6, Rules: []Rule{{Action: hw.ActDelay, Rate: 1, Slowdown: 2}}},
	}
}

// FailStopPlans returns the fail-stop chaos suite: a node kill and an
// asymmetric (one-way) partition, both with per-rule deterministic streams
// like every other plan. These are deliberately NOT part of StandardPlans —
// the recoverable-fault soak tests assert end-to-end checksums equal to the
// lossless baseline, and a fail-stopped node changes the computation itself.
// Fail-stop soak tests instead assert bounded-time typed errors on the
// survivors.
func FailStopPlans(seed uint64) []*Plan {
	return []*Plan{
		{Name: "kill", Seed: seed + 20, Kills: []NodeKill{{Node: 1, At: 2000 * hw.Microsecond}}},
		// Node 0's packets to node 1 vanish from 500us on, while node 1's
		// still arrive, so each side sees a different network. Both still
		// converge on a fail-stop verdict: node 0 gets no acks and declares
		// node 1 dead through backoff; node 1 then drops the declared-dead
		// peer's arrivals and, with traffic of its own pending, declares
		// death from its side too.
		{Name: "partition1way", Seed: seed + 21, Rules: []Rule{
			{Action: hw.ActDrop, Rate: 1, Srcs: []int{0}, Dsts: []int{1}, From: 500 * hw.Microsecond}}},
	}
}
