// Package faults turns declarative, composable fault plans into the switch's
// fault hook. A Plan is a named, seeded list of Rules; each Rule matches a
// subset of packets (by protocol class, endpoints, and time window) and fires
// a fault verdict at some rate: drop, burst drop, duplicate, delay-based
// reorder, bit corruption, total blackout, or a degraded (slower) link.
//
// Plans are deterministic: the same plan, seed, and workload produce the same
// injected faults on every run, so chaos tests can assert exact end-to-end
// checksums against a lossless baseline.
package faults

import (
	"fmt"
	"strings"

	"spam/internal/hw"
	"spam/internal/sim"
)

// Rule matches a subset of packets and fires one fault kind at a given rate.
// Build rules with the constructors (Loss, BurstLoss, Duplicate, Reorder,
// Corrupt, Blackout, Degrade) and narrow them with the chainable modifiers
// (OnClass, FromNode, ToNode, Between). The zero filters match everything.
type Rule struct {
	classes   []string
	src, dst  int          // -1 = any
	srcSet    map[int]bool // non-nil: src must be a member (partitions)
	dstSet    map[int]bool // non-nil: dst must be a member
	from      sim.Time     // window start (inclusive)
	until     sim.Time     // window end (exclusive); 0 = forever
	act       hw.FaultAction
	rate      float64  // firing probability per matching packet
	delay     sim.Time // fixed extra latency for delay verdicts
	burst     int      // run length once a burst-loss rule fires
	perByteNS float64  // extra delay per wire byte (degraded links)
}

func newRule(act hw.FaultAction, rate float64) *Rule {
	return &Rule{src: -1, dst: -1, act: act, rate: rate}
}

// Loss drops each matching packet independently with probability rate.
func Loss(rate float64) *Rule { return newRule(hw.ActDrop, rate) }

// BurstLoss drops runs of packets: each matching packet starts a burst with
// probability rate, and once started the next burst-1 matching packets are
// dropped too. This models the SP's realistic failure mode — a route or
// adapter hiccup losing consecutive packets — which exercises go-back-N much
// harder than independent loss.
func BurstLoss(rate float64, burst int) *Rule {
	r := newRule(hw.ActDrop, rate)
	r.burst = burst
	return r
}

// Duplicate delivers each matching packet twice with probability rate,
// exercising the receive window's duplicate suppression.
func Duplicate(rate float64) *Rule { return newRule(hw.ActDuplicate, rate) }

// Reorder holds each matching packet for delay with probability rate,
// letting packets sent after it overtake it in the fabric.
func Reorder(rate float64, delay sim.Time) *Rule {
	r := newRule(hw.ActDelay, rate)
	r.delay = delay
	return r
}

// Corrupt flips a bit in each matching packet's payload or header with
// probability rate. The wire checksum must catch every corruption; the
// sender's retransmission machinery recovers the damaged packet.
func Corrupt(rate float64) *Rule { return newRule(hw.ActCorrupt, rate) }

// Blackout drops every matching packet in [from, until) — a link or node
// temporarily vanishing. Recovery relies on the keep-alive probes once the
// window closes.
func Blackout(from, until sim.Time) *Rule {
	r := newRule(hw.ActDrop, 1)
	r.from, r.until = from, until
	return r
}

// PartitionOneWay drops every packet from a node in srcs to a node in dsts
// during [from, until) (until 0 = forever). The cut is asymmetric: traffic
// in the reverse direction still flows, so each side sees a different
// network — the srcs side's packets vanish while its peers' arrive. Both
// sides still converge on a fail-stop verdict: the srcs side gets no acks
// and declares its peers dead through backoff; the dsts side then drops the
// declared-dead peers' arrivals and, with traffic of its own pending,
// declares death from its side too.
func PartitionOneWay(srcs, dsts []int, from, until sim.Time) *Rule {
	r := newRule(hw.ActDrop, 1)
	r.from, r.until = from, until
	r.srcSet = make(map[int]bool, len(srcs))
	for _, n := range srcs {
		r.srcSet[n] = true
	}
	r.dstSet = make(map[int]bool, len(dsts))
	for _, n := range dsts {
		r.dstSet[n] = true
	}
	return r
}

// Degrade slows every matching packet as if the link ran at 1/factor of its
// nominal bandwidth: each packet is held for (factor-1) extra transmission
// times before injection. factor must be > 1.
func Degrade(factor float64) *Rule {
	if factor <= 1 {
		panic("faults: Degrade factor must be > 1")
	}
	r := newRule(hw.ActDelay, 1)
	r.perByteNS = (factor - 1) * 1e9 / hw.DefaultSwitch().LinkBPS
	return r
}

// OnClass restricts the rule to packets whose protocol class (the header
// kind's Class) is one of the given names, e.g. "request", "reply", "chunk",
// "ack", "nack", "probe".
func (r *Rule) OnClass(classes ...string) *Rule { r.classes = classes; return r }

// FromNode restricts the rule to packets injected by node src.
func (r *Rule) FromNode(src int) *Rule { r.src = src; return r }

// ToNode restricts the rule to packets destined for node dst.
func (r *Rule) ToNode(dst int) *Rule { r.dst = dst; return r }

// Between restricts the rule to packets sent in [from, until).
func (r *Rule) Between(from, until sim.Time) *Rule { r.from, r.until = from, until; return r }

func (r *Rule) matches(now sim.Time, pkt *hw.Packet) bool {
	if r.src >= 0 && pkt.Src != r.src {
		return false
	}
	if r.dst >= 0 && pkt.Dst != r.dst {
		return false
	}
	if r.srcSet != nil && !r.srcSet[pkt.Src] {
		return false
	}
	if r.dstSet != nil && !r.dstSet[pkt.Dst] {
		return false
	}
	if now < r.from || (r.until > 0 && now >= r.until) {
		return false
	}
	if len(r.classes) > 0 {
		c := pkt.Class()
		for _, want := range r.classes {
			if c == want {
				return true
			}
		}
		return false
	}
	return true
}

func (r *Rule) String() string {
	s := r.act.String()
	if r.rate < 1 {
		s += fmt.Sprintf(" %.3g", r.rate)
	}
	if r.burst > 1 {
		s += fmt.Sprintf(" burst=%d", r.burst)
	}
	if len(r.classes) > 0 {
		s += " on " + strings.Join(r.classes, ",")
	}
	if r.until > 0 {
		s += fmt.Sprintf(" in [%v,%v)", r.from, r.until)
	}
	return s
}

// NodeKill fail-stops one node at a simulated time: from At on, the node's
// adapter delivers nothing and the switch drops everything it injected.
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
	Rules []*Rule
	Kills []NodeKill
}

// NewPlan builds a plan.
func NewPlan(name string, seed uint64, rules ...*Rule) *Plan {
	return &Plan{Name: name, Seed: seed, Rules: rules}
}

// WithKill adds a fail-stop node kill to the plan (chainable).
func (p *Plan) WithKill(node int, at sim.Time) *Plan {
	p.Kills = append(p.Kills, NodeKill{Node: node, At: at})
	return p
}

// verdict runs the plan's rule list against one packet using the given
// per-rule random streams and burst counters.
func (p *Plan) verdict(now sim.Time, pkt *hw.Packet, rngs []*sim.Rand, burstLeft []int) hw.Verdict {
	for i, r := range p.Rules {
		if !r.matches(now, pkt) {
			continue
		}
		fired := false
		if r.burst > 1 {
			if burstLeft[i] > 0 {
				burstLeft[i]--
				fired = true
			} else if rngs[i].Float64() < r.rate {
				burstLeft[i] = r.burst - 1
				fired = true
			}
		} else if r.rate >= 1 || rngs[i].Float64() < r.rate {
			fired = true
		}
		if !fired {
			continue
		}
		switch r.act {
		case hw.ActDrop:
			return hw.Drop()
		case hw.ActDuplicate:
			return hw.Duplicate()
		case hw.ActDelay:
			d := r.delay
			if r.perByteNS > 0 {
				d += sim.Time(r.perByteNS * float64(pkt.WireBytes()))
			}
			return hw.DelayBy(d)
		case hw.ActCorrupt:
			return hw.Corrupt()
		}
	}
	return hw.Deliver()
}

// Compile lowers the plan into a switch fault hook. Each rule gets its own
// random stream forked deterministically from the plan seed, so adding a
// rule does not perturb the firing pattern of the rules before it.
func (p *Plan) Compile(eng *sim.Engine) hw.FaultFunc {
	master := sim.NewRand(p.Seed)
	rngs := make([]*sim.Rand, len(p.Rules))
	burstLeft := make([]int, len(p.Rules))
	for i := range p.Rules {
		rngs[i] = master.Fork()
	}
	return func(pkt *hw.Packet) hw.Verdict {
		return p.verdict(eng.Now(), pkt, rngs, burstLeft)
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
		NewPlan("drop2pct", seed, Loss(0.02)),
		NewPlan("burst", seed+1, BurstLoss(0.004, 8)),
		NewPlan("duplicate", seed+2, Duplicate(0.03)),
		NewPlan("reorder", seed+3, Reorder(0.05, 25*hw.Microsecond)),
		NewPlan("corrupt", seed+4, Corrupt(0.02)),
		NewPlan("blackout", seed+5, Blackout(50*hw.Microsecond, 350*hw.Microsecond)),
		NewPlan("degraded", seed+6, Degrade(2.0)),
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
		NewPlan("kill", seed+20).WithKill(1, 2000*hw.Microsecond),
		NewPlan("partition1way", seed+21,
			PartitionOneWay([]int{0}, []int{1}, 500*hw.Microsecond, 0)),
	}
}
