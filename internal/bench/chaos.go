package bench

import (
	"fmt"
	"io"

	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/sim"
)

// amKillRun streams n-byte blocking stores from node 0 at node 1, fail-stops
// node 1 at killAt (optionally with uniform packet loss on top), and runs
// until the survivor's AM layer declares the peer dead. It reports the
// declaration, the operations completed before it, and the aggregate
// protocol counters.
func amKillRun(s Setup, killAt sim.Time, loss float64, n int) (derr *am.PeerDeathError, completed int, errAt sim.Time, st am.Stats) {
	s.Plan = &faults.Plan{Name: fmt.Sprintf("kill@%v", killAt), Seed: 0x51a11,
		Kills: []faults.NodeKill{{Node: 1, At: killAt}}}
	if loss > 0 {
		s.Plan.Rules = []faults.Rule{{Action: hw.ActDrop, Rate: loss}}
	}
	c, sys := s.am(2)

	remoteSeg := c.Nodes[1].Mem.Add(make([]byte, n))
	c.Spawn(0, "mover", func(p *sim.Proc, n0 *hw.Node) {
		ep := sys.EPs[0]
		src := make([]byte, n)
		raddr := hw.Addr{Seg: remoteSeg}
		for {
			if err := ep.Store(p, 1, raddr, src, am.NoHandler, 0); err != nil {
				derr, _ = err.(*am.PeerDeathError)
				errAt = p.Now()
				return
			}
			completed++
		}
	})
	c.Spawn(1, "victim", func(p *sim.Proc, n1 *hw.Node) {
		ep := sys.EPs[1]
		for { // a poll detaches this proc the moment the node fail-stops
			ep.PollWait(p, 0)
		}
	})
	c.Run()
	return derr, completed, errAt, sys.Totals()
}

// KillTable sweeps fail-stop kill times (clean and under packet loss) and
// prints, for each, the survivor's detection latency — from the instant of
// the kill to the peer-death declaration — plus the backoff work that led to
// it and the goodput delivered up to the declaration. This is the repo's
// failure-detection-latency experiment: detection is driven entirely by the
// adaptive RTO backoff ladder, so latency grows with the measured RTT and
// with loss-induced RTO inflation, not with a hardwired timeout.
func KillTable(w io.Writer, s Setup) {
	const n = 4 << 10
	kills := []sim.Time{hw.US(500), hw.US(1000), hw.US(2000), hw.US(4000)}
	losses := []float64{0, 0.02}
	fmt.Fprintf(w, "# chaos kill: fail-stop detection latency and goodput (%d-byte blocking stores, node 1 killed)\n", n)
	fmt.Fprintf(w, "%-10s %6s %11s %7s %9s %8s %7s %10s\n",
		"kill_at", "loss", "detect_us", "rounds", "backoffs", "probes", "ops", "MB/s")
	for _, ka := range kills {
		for _, loss := range losses {
			derr, completed, errAt, st := amKillRun(s, ka, loss, n)
			if derr == nil {
				fmt.Fprintf(w, "%-10v %5.1f%% %11s\n", ka, loss*100, "no-detect")
				continue
			}
			det := float64(derr.At-ka) / 1000.0
			goodput := float64(completed*n) / 1e6 / errAt.Seconds()
			fmt.Fprintf(w, "%-10v %5.1f%% %11.1f %7d %9d %8d %7d %10.2f\n",
				ka, loss*100, det, derr.Rounds, st.Backoffs, st.Probes, completed, goodput)
		}
	}
}

// ChaosTable sweeps uniform random packet-loss rates and prints the
// delivered async-store bandwidth under each, alongside the recovery work
// the protocol performed (retransmissions, NACKs, keep-alive probes). The
// 0% row is the lossless baseline the others are normalized against.
func ChaosTable(w io.Writer, s Setup, total int) {
	const n = 1 << 16
	rates := []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}
	fmt.Fprintf(w, "# chaos: async-store bandwidth vs uniform packet-loss rate (%d bytes in %d-byte ops)\n", total, n)
	fmt.Fprintf(w, "%-8s %10s %9s %9s %7s %7s %9s\n",
		"loss", "MB/s", "vs 0%", "retrans", "nacks", "probes", "dropped")
	var base float64
	for _, r := range rates {
		s.Plan = nil
		if r > 0 {
			s.Plan = &faults.Plan{Name: fmt.Sprintf("loss-%.3f", r), Seed: 0xc4a05 + uint64(r*1e6),
				Rules: []faults.Rule{{Action: hw.ActDrop, Rate: r}}}
		}
		mbps, after := Bandwidth(s, AsyncStore, n, total)
		if base == 0 {
			base = mbps
		}
		fmt.Fprintf(w, "%7.1f%% %10.2f %8.1f%% %9d %7d %7d %9d\n",
			r*100, mbps, 100*mbps/base, after.Stats.Retransmits, after.Stats.NacksSent,
			after.Stats.Probes, after.Losses.Faults.Dropped)
	}
}
