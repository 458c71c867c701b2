package am_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/sim"
)

// blackoutWedge runs a 2-node cluster on the paper's protocol under a
// blackout that never lifts: node 0 blocks in a Store it can never
// complete, node 1 polls an empty network. It returns the system and what
// RunChecked makes of the wedge.
func blackoutWedge(budget sim.Time) (*am.System, error) {
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.New(c)
	(&faults.Plan{Name: "blackout-forever", Seed: 11, Rules: []faults.Rule{{Action: hw.ActDrop, Rate: 1, From: hw.US(200)}}}).Apply(c)
	remoteSeg := c.Nodes[1].Mem.Add(make([]byte, 256))
	c.Spawn(0, "mover", func(p *sim.Proc, _ *hw.Node) {
		ep := sys.EPs[0]
		src := make([]byte, 256)
		for {
			if err := ep.Store(p, 1, hw.Addr{Seg: remoteSeg}, src, am.NoHandler, 0); err != nil {
				return
			}
		}
	})
	c.Spawn(1, "peer", func(p *sim.Proc, _ *hw.Node) {
		ep := sys.EPs[1]
		for {
			ep.Poll(p)
		}
	})
	return sys, c.RunChecked(budget)
}

// TestBlackoutWatchdogFires is the liveness soak for a wedge that outlasts
// the run's budget before fail-stop detection (about 0.5 s of probe rounds)
// can end it: a total blackout that never lifts. The run must not spin
// forever — the cluster watchdog has to stop it with a diagnosis naming the
// stuck peer traffic, before either node has declared the other dead.
func TestBlackoutWatchdogFires(t *testing.T) {
	budget := hw.US(100_000)
	sys, err := blackoutWedge(budget)
	var w *hw.WatchdogError
	if !errors.As(err, &w) {
		t.Fatalf("RunChecked = %v, want *hw.WatchdogError", err)
	}
	if w.Budget != budget {
		t.Errorf("watchdog budget = %v, want %v", w.Budget, budget)
	}
	if !strings.Contains(w.Report, "am: node 0 -> 1") || !strings.Contains(w.Report, "unacked") {
		t.Errorf("stall report does not name the stuck peer traffic:\n%s", w.Report)
	}
	for i, ep := range sys.EPs {
		if ep.Stats.DeadPeers != 0 {
			t.Errorf("node %d declared %d peers dead before the watchdog stop; the wedge must outlast detection", i, ep.Stats.DeadPeers)
		}
	}
}

// killedPeer is the `-chaos kill` shape in miniature: node 1 fail-stops
// while polling, so its program detaches and never returns; node 0 probes
// until it declares the peer dead, and the run completes without it.
func killedPeer(t *testing.T) {
	c := hw.NewCluster(hw.DefaultConfig(2))
	sys := am.NewWithOptions(c, fastKeepAlive())
	c.Kill(1, hw.US(777))
	nop := sys.Register(func(*sim.Proc, *am.Endpoint, am.Token, []uint32) {})
	c.Spawn(0, "survivor", func(p *sim.Proc, _ *hw.Node) {
		ep := sys.EPs[0]
		for ep.PeerErr(1) == nil && ep.Request(p, 1, nop) == nil {
			ep.PollWait(p, p.Now()+hw.US(100))
		}
	})
	c.Spawn(1, "victim", func(p *sim.Proc, _ *hw.Node) {
		for {
			sys.EPs[1].Poll(p)
		}
	})
	c.Run()
	if sys.EPs[0].Stats.DeadPeers != 1 {
		t.Fatalf("survivor declared %d peers dead, want 1", sys.EPs[0].Stats.DeadPeers)
	}
}

// TestFinalRunsLeaveNoGoroutines: a run whose verdict is final — a watchdog
// stop with both programs wedged, a completed run with a killed node's
// program detached — releases the processes it leaves parked. Each one left
// behind is a goroutine pinning its whole cluster.
func TestFinalRunsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		var w *hw.WatchdogError
		if _, err := blackoutWedge(hw.US(20_000)); !errors.As(err, &w) {
			t.Fatalf("RunChecked = %v, want *hw.WatchdogError", err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after ten wedged runs, %d before", n, base)
	}
	killedPeer(t)
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after a run with a killed node, %d before", n, base)
	}
}
