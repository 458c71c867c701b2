package faults

import (
	"bytes"
	"testing"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

func TestRuleMatching(t *testing.T) {
	pkt := func(src, dst int) *hw.Packet { return &hw.Packet{Src: src, Dst: dst} }
	cases := []struct {
		name string
		r    Rule
		now  sim.Time
		pkt  *hw.Packet
		want bool
	}{
		{"any", Rule{}, 0, pkt(0, 1), true},
		{"empty sets match any node", Rule{Srcs: []int{}, Dsts: []int{}}, 0, pkt(0, 1), true},
		{"src match", Rule{Srcs: []int{0}}, 0, pkt(0, 1), true},
		{"src miss", Rule{Srcs: []int{2}}, 0, pkt(0, 1), false},
		{"dst match", Rule{Dsts: []int{1}}, 0, pkt(0, 1), true},
		{"dst miss", Rule{Dsts: []int{0}}, 0, pkt(0, 1), false},
		{"before window", Rule{From: 100, Until: 200}, 99, pkt(0, 1), false},
		{"in window", Rule{From: 100, Until: 200}, 100, pkt(0, 1), true},
		{"after window", Rule{From: 100, Until: 200}, 200, pkt(0, 1), false},
		{"class miss on untyped pkt", Rule{Classes: []string{"ack"}}, 0, pkt(0, 1), false},
	}
	for _, tc := range cases {
		if got := tc.r.matches(tc.now, tc.pkt); got != tc.want {
			t.Errorf("%s: matches = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRuleClassMatching(t *testing.T) {
	r := Rule{Classes: []string{"ack", "reply"}}
	for kind, want := range map[hw.Kind]bool{hw.KindAck: true, hw.KindReply: true, hw.KindRequest: false} {
		p := &hw.Packet{Hdr: hw.Header{Kind: kind}}
		if got := r.matches(0, p); got != want {
			t.Errorf("kind %v: matches = %v, want %v", kind, got, want)
		}
	}
}

// TestBurstSemantics drives synthetic packets through a compiled burst rule
// and checks drops come in runs of the configured length (back-to-back
// bursts can merge, so runs are multiples of it).
func TestBurstSemantics(t *testing.T) {
	const burst = 4
	eng := sim.NewEngine(1)
	f := (&Plan{Name: "b", Seed: 7, Rules: []Rule{{Action: hw.ActDrop, Rate: 0.05, Burst: burst}}}).Compile(eng)
	run, drops := 0, 0
	for i := 0; i < 5000; i++ {
		v := f(&hw.Packet{Src: 0, Dst: 1})
		if v.Action == hw.ActDrop {
			run++
			drops++
			continue
		}
		if run%burst != 0 {
			t.Fatalf("packet %d ended a drop run of length %d, want a multiple of %d", i, run, burst)
		}
		run = 0
	}
	if drops == 0 {
		t.Fatal("burst rule never fired in 5000 packets")
	}
}

// TestPlanDeterminism compiles the same plan twice and checks the verdict
// sequence over a synthetic packet stream is identical.
func TestPlanDeterminism(t *testing.T) {
	mk := func() []hw.FaultAction {
		eng := sim.NewEngine(1)
		f := (&Plan{Name: "d", Seed: 42, Rules: []Rule{
			{Action: hw.ActDrop, Rate: 0.1},
			{Action: hw.ActDuplicate, Rate: 0.1},
			{Action: hw.ActCorrupt, Rate: 0.1},
		}}).Compile(eng)
		var out []hw.FaultAction
		for i := 0; i < 2000; i++ {
			out = append(out, f(&hw.Packet{Src: 0, Dst: 1}).Action)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identical compilations: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRuleOrderIndependentStreams checks that appending a rule does not
// perturb the firing pattern of the rules before it (per-rule forked rngs).
func TestRuleOrderIndependentStreams(t *testing.T) {
	fire := func(plan *Plan) []bool {
		f := plan.Compile(sim.NewEngine(1))
		var out []bool
		for i := 0; i < 1000; i++ {
			out = append(out, f(&hw.Packet{Src: 0, Dst: 1}).Action == hw.ActDrop)
		}
		return out
	}
	// The second plan's extra rule only matches node 5 traffic, so it never
	// fires here — the drop pattern must be unchanged.
	loss := Rule{Action: hw.ActDrop, Rate: 0.1}
	a := fire(&Plan{Name: "p", Seed: 9, Rules: []Rule{loss}})
	b := fire(&Plan{Name: "p", Seed: 9, Rules: []Rule{loss, {Action: hw.ActDuplicate, Rate: 0.5, Srcs: []int{5}}}})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern diverged at packet %d after appending an unrelated rule", i)
		}
	}
}

// storeUnder runs a 2-node AM bulk store under the given plan and returns
// the system plus the landing zone for inspection.
func storeUnder(t *testing.T, plan *Plan, size int) (*am.System, []byte, []byte) {
	t.Helper()
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	plan.Apply(c)

	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	dst := make([]byte, size)
	seg := c.Nodes[1].Mem.Add(dst)

	done := false
	bh := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		done = true
	})
	c.Spawn(0, "tx", func(p *sim.Proc, nd *hw.Node) {
		sys.EPs[0].Store(p, 1, hw.Addr{Seg: seg}, src, bh, 0)
	})
	c.Spawn(1, "rx", func(p *sim.Proc, nd *hw.Node) {
		for !done {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
	return sys, src, dst
}

// TestCorruptedPacketsNeverDelivered is the corruption-safety property: under
// heavy bit corruption every damaged packet must be caught by the wire
// checksum (counted in CorruptDropped), never handed to a handler, and the
// transfer must still complete intact via retransmission.
func TestCorruptedPacketsNeverDelivered(t *testing.T) {
	sys, src, dst := storeUnder(t, &Plan{Name: "corrupt", Seed: 3, Rules: []Rule{{Action: hw.ActCorrupt, Rate: 0.15}}}, 64<<10)
	if !bytes.Equal(src, dst) {
		t.Fatal("payload damaged end-to-end: corruption leaked past the checksum")
	}
	stats := sys.Totals()
	faults := sys.Cluster.Switch.Faults
	if faults.Corrupted == 0 {
		t.Fatal("no corruption was injected")
	}
	if stats.CorruptDropped == 0 {
		t.Fatal("no packets were checksum-discarded despite injected corruption")
	}
	// Every corrupted packet that reached a receiver must have been
	// discarded; some corrupt verdicts yield no deliverable packet at all.
	if stats.CorruptDropped > faults.Corrupted {
		t.Fatalf("discarded %d > corrupted %d: spurious checksum failures",
			stats.CorruptDropped, faults.Corrupted)
	}
	if stats.Retransmits == 0 {
		t.Fatal("transfer completed without retransmits despite corruption discards")
	}
}

// TestReplyChannelStarvation (the reply-starvation satellite): a plan that
// drops only reply-channel traffic — replies and explicit acks — during an
// initial window must not wedge a request/reply workload. The keep-alive
// probe path has to resynchronize both channels once the window lifts.
func TestReplyChannelStarvation(t *testing.T) {
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	(&Plan{Name: "reply-starve", Seed: 11, Rules: []Rule{
		{Action: hw.ActDrop, Rate: 1, Classes: []string{"reply", "ack"}, Until: 800 * hw.Microsecond},
	}}).Apply(c)

	const nReq = 8
	gotReplies := 0
	var hReply am.HandlerID
	hReq := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Reply(p, tok, hReply, args[0])
	})
	hReply = sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		gotReplies++
	})

	finished := false
	c.Spawn(0, "req", func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < nReq; i++ {
			ep.Request(p, 1, hReq, uint32(i))
		}
		for gotReplies < nReq {
			ep.Poll(p)
		}
		finished = true
	})
	c.Spawn(1, "svc", func(p *sim.Proc, nd *hw.Node) {
		for !finished {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()

	if gotReplies != nReq {
		t.Fatalf("got %d replies, want %d", gotReplies, nReq)
	}
	if c.Switch.Faults.Dropped == 0 {
		t.Fatal("starvation plan never dropped anything")
	}
	if sys.Totals().Probes == 0 {
		t.Fatal("recovery happened without keep-alive probes — window too easy")
	}
}

// TestBlackoutRecovery: total packet loss in an early window must still
// resolve once the blackout lifts, with intact data.
func TestBlackoutRecovery(t *testing.T) {
	sys, src, dst := storeUnder(t,
		&Plan{Name: "blackout", Seed: 5, Rules: []Rule{
			{Action: hw.ActDrop, Rate: 1, From: 50 * hw.Microsecond, Until: 350 * hw.Microsecond}}}, 32<<10)
	if !bytes.Equal(src, dst) {
		t.Fatal("payload damaged after blackout recovery")
	}
	if sys.Cluster.Switch.Faults.Dropped == 0 {
		t.Fatal("blackout window missed the transfer entirely")
	}
}

// TestDuplicationIsIdempotent: heavy duplication must deliver each bulk
// handler exactly once with intact data.
func TestDuplicationIsIdempotent(t *testing.T) {
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	(&Plan{Name: "dup", Seed: 13, Rules: []Rule{{Action: hw.ActDuplicate, Rate: 0.25}}}).Apply(c)

	const nStores = 20
	const slot = 256
	delivered := 0
	dst := make([]byte, nStores*slot)
	seg := c.Nodes[1].Mem.Add(dst)
	bh := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		delivered++
	})
	finished := false
	c.Spawn(0, "tx", func(p *sim.Proc, nd *hw.Node) {
		ep := sys.EPs[0]
		for i := 0; i < nStores; i++ {
			data := make([]byte, slot)
			for j := range data {
				data[j] = byte(i + j)
			}
			ep.Store(p, 1, hw.Addr{Seg: seg, Off: i * slot}, data, bh, uint32(i))
		}
		finished = true
	})
	c.Spawn(1, "rx", func(p *sim.Proc, nd *hw.Node) {
		for !finished || delivered < nStores {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()

	if delivered != nStores {
		t.Fatalf("bulk handler ran %d times, want exactly %d", delivered, nStores)
	}
	if c.Switch.Faults.Duplicated == 0 {
		t.Fatal("duplication plan never fired")
	}
	for i := 0; i < nStores; i++ {
		for j := 0; j < slot; j++ {
			if dst[i*slot+j] != byte(i+j) {
				t.Fatalf("store %d corrupted at byte %d", i, j)
			}
		}
	}
}

// TestDegradeSlowsButCompletes: a degraded link stretches the transfer
// roughly by its factor without breaking it.
func TestDegradeSlowsButCompletes(t *testing.T) {
	elapsed := func(plan *Plan) sim.Time {
		sys, src, dst := storeUnder(t, plan, 64<<10)
		if !bytes.Equal(src, dst) {
			t.Fatal("payload damaged")
		}
		return sys.Cluster.Eng.Now()
	}
	base := elapsed(nil)
	slow := elapsed(&Plan{Name: "degraded", Seed: 17, Rules: []Rule{{Action: hw.ActDelay, Rate: 1, Slowdown: 2}}})
	if slow <= base {
		t.Fatalf("degraded run (%v) not slower than lossless (%v)", slow, base)
	}
}

// TestCompileRejectsSlowdownAtMostOne: a degraded link must be slower than
// the nominal one, and a zero Slowdown means no degradation at all.
func TestCompileRejectsSlowdownAtMostOne(t *testing.T) {
	for _, s := range []float64{0.5, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slowdown %v compiled without a panic", s)
				}
			}()
			(&Plan{Rules: []Rule{{Action: hw.ActDelay, Rate: 1, Slowdown: s}}}).Compile(sim.NewEngine(1))
		}()
	}
}

func TestStandardPlansAllDistinctAndComplete(t *testing.T) {
	plans := StandardPlans(99)
	if len(plans) != 7 {
		t.Fatalf("%d standard plans, want 7", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if seen[p.Name] {
			t.Fatalf("duplicate plan name %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Rules) == 0 {
			t.Fatalf("plan %q has no rules", p.Name)
		}
	}
	for _, want := range []string{"drop2pct", "burst", "duplicate", "reorder", "corrupt", "blackout", "degraded"} {
		if !seen[want] {
			t.Fatalf("standard plans missing %q", want)
		}
	}
}

// TestPartitionOneWayMatching checks the asymmetric cut: only Srcs to Dsts
// packets inside the window match; the reverse direction and uninvolved
// nodes never do, and Until 0 means forever.
func TestPartitionOneWayMatching(t *testing.T) {
	r := Rule{Action: hw.ActDrop, Rate: 1, Srcs: []int{0, 1}, Dsts: []int{2}, From: 100}
	pkt := func(src, dst int) *hw.Packet { return &hw.Packet{Src: src, Dst: dst} }
	cases := []struct {
		name string
		now  sim.Time
		pkt  *hw.Packet
		want bool
	}{
		{"cut direction", 100, pkt(0, 2), true},
		{"cut direction, other src", 100, pkt(1, 2), true},
		{"reverse direction", 100, pkt(2, 0), false},
		{"src not in set", 100, pkt(3, 2), false},
		{"dst not in set", 100, pkt(0, 1), false},
		{"before window", 99, pkt(0, 2), false},
		{"until=0 is forever", 1 << 40, pkt(0, 2), true},
	}
	for _, tc := range cases {
		if got := r.matches(tc.now, tc.pkt); got != tc.want {
			t.Errorf("%s: matches = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPlanKillsArmCluster checks that applying a plan with kills arms the
// fail-stop gate on both the node and the switch.
func TestPlanKillsArmCluster(t *testing.T) {
	const at = sim.Time(12345)
	c := hw.NewCluster(hw.DefaultConfig(3))
	(&Plan{Name: "kill", Seed: 1, Kills: []NodeKill{{Node: 2, At: at}}}).Apply(c)
	if got := c.Nodes[2].KillTime(); got != at {
		t.Errorf("node kill time = %v, want %v", got, at)
	}
	if c.Nodes[0].KillTime() != 0 || c.Nodes[1].KillTime() != 0 {
		t.Errorf("kill leaked to other nodes")
	}
}

// TestFailStopPlansNotStandard pins the registry split: the fail-stop plans
// terminate runs with errors, so they must never leak into StandardPlans,
// whose consumers assert checksum equality against a lossless baseline.
func TestFailStopPlansNotStandard(t *testing.T) {
	std := map[string]bool{}
	for _, p := range StandardPlans(1) {
		std[p.Name] = true
	}
	fs := FailStopPlans(1)
	if len(fs) == 0 {
		t.Fatal("FailStopPlans is empty")
	}
	for _, p := range fs {
		if std[p.Name] {
			t.Errorf("fail-stop plan %q is also in StandardPlans", p.Name)
		}
	}
}
