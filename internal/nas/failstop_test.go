package nas_test

import (
	"errors"
	"testing"

	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/nas"
)

// TestKillMidMG fail-stops rank 2 in the middle of an MG run (the quick
// configuration runs ~35 ms simulated; the kill lands at 10 ms) and
// requires every survivor to come back with a typed error in bounded
// simulated time instead of wedging. The run is deterministic, so each
// survivor's (code, peer) is pinned. Rank 3 detects the death through the
// AM backoff ladder (its traffic to rank 2 goes unacknowledged); rank 1,
// waiting on rank 0, is released by the communicator deadline. Rank 0
// reports a truncation: after the kill the survivors' collective tags
// desynchronize, and an 8-byte message from rank 1 lands in one of rank 0's
// 0-byte barrier receives.
func TestKillMidMG(t *testing.T) {
	const (
		killRank = 2
		killAt   = 10 * 1000 * hw.Microsecond // 10 ms, mid-kernel
		deadline = 1500 * 1000 * hw.Microsecond
		bound    = 2 * deadline
	)
	cluster := hw.NewCluster(hw.DefaultConfig(4))
	sys := mpi.New(cluster, mpi.Optimized())
	(&faults.Plan{Name: "kill-mid-mg", Seed: 5, Kills: []faults.NodeKill{{Node: killRank, At: killAt}}}).Apply(cluster)
	var comms []mpi.PT
	for _, c := range sys.Comms {
		// Backstop for survivors whose only traffic is with other survivors:
		// detection is sender-side, so a rank with nothing unacked toward the
		// dead node unblocks via the deadline, not via a death declaration.
		c.SetDeadline(deadline)
		comms = append(comms, c)
	}
	res := nas.RunBudget(cluster, comms, "MG", "mpi-am",
		nas.MG(nas.MGConfig{N: 32, Iters: 2, Levels: 2}), 100*1000*hw.Microsecond)

	if now := cluster.Eng.Now(); now > bound {
		t.Errorf("run took %v simulated, want <= %v (survivors did not unblock in bounded time)", now, bound)
	}
	if res.Errs[killRank] != nil {
		t.Errorf("killed rank %d reported %v; a fail-stopped rank never returns", killRank, res.Errs[killRank])
	}
	want := map[int]struct {
		code mpi.ErrCode
		peer int
	}{0: {mpi.ErrTruncate, 1}, 1: {mpi.ErrTimeout, 0}, 3: {mpi.ErrPeerDead, killRank}}
	deaths := 0
	for r, err := range res.Errs {
		if r == killRank {
			continue
		}
		var me *mpi.Error
		if !errors.As(err, &me) {
			t.Errorf("rank %d: error = %v, want a typed *mpi.Error", r, err)
			continue
		}
		if w := want[r]; me.Code != w.code || me.Peer != w.peer {
			t.Errorf("rank %d: %v (peer %d), want %v (peer %d)", r, me.Code, me.Peer, w.code, w.peer)
		}
		if me.Code == mpi.ErrPeerDead {
			deaths++
			var de *am.PeerDeathError
			if !errors.As(err, &de) {
				t.Errorf("rank %d: ErrPeerDead does not unwrap to *am.PeerDeathError: %v", r, err)
			}
		}
	}
	if deaths == 0 {
		t.Error("no survivor declared the killed rank dead; sender-side detection never fired")
	}
}
