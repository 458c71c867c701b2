package hw

import (
	"testing"

	"spam/internal/sim"
	"spam/internal/trace"
)

// allToAll runs an n-node workload where every node streams pkts packets to
// every other node and the receivers drain, returning the finish time and
// per-node delivery counts.
func allToAll(cfg Config, pkts int) (sim.Time, []int64, int64) {
	c := NewCluster(cfg)
	n := cfg.NumNodes
	c.SpawnAll("a2a", func(p *sim.Proc, nd *Node) {
		want := int64(pkts * (n - 1))
		sent := 0
		for nd.Adapter.Delivered < want || sent < pkts*(n-1) {
			for sent < pkts*(n-1) && nd.Adapter.SendSpace() > 0 {
				dst := (nd.ID + 1 + sent%(n-1)) % n
				nd.Adapter.PushSend(&Packet{Dst: dst, HdrBytes: 32,
					Hdr: Header{Arg: uint32(sent)}})
				nd.Adapter.CommitLengths(p)
				sent++
			}
			for nd.Adapter.RecvPeek() != nil {
				nd.Pool.Put(nd.Adapter.RecvPop())
			}
			p.Advance(US(2))
		}
		for nd.Adapter.RecvPeek() != nil {
			nd.Pool.Put(nd.Adapter.RecvPop())
		}
	})
	c.Run()
	deliv := make([]int64, n)
	for i, nd := range c.Nodes {
		deliv[i] = nd.Adapter.Delivered
	}
	return c.Eng.Now(), deliv, c.Switch.Sent
}

// TestShardedAllToAllMatchesSerial is the hw-layer determinism anchor: the
// same workload must finish at the same virtual time with the same delivery
// and injection counts for every shard count.
func TestShardedAllToAllMatchesSerial(t *testing.T) {
	cfg := DefaultConfig(6)
	baseT, baseD, baseSent := allToAll(cfg, 20)
	if baseSent == 0 {
		t.Fatal("serial run sent nothing")
	}
	for _, shards := range []int{2, 3, 6} {
		scfg := cfg
		scfg.NodePar = shards
		gotT, gotD, gotSent := allToAll(scfg, 20)
		if gotT != baseT {
			t.Errorf("shards=%d: finish %v, serial %v", shards, gotT, baseT)
		}
		if gotSent != baseSent {
			t.Errorf("shards=%d: sent %d, serial %d", shards, gotSent, baseSent)
		}
		for i := range baseD {
			if gotD[i] != baseD[i] {
				t.Errorf("shards=%d: node %d delivered %d, serial %d",
					shards, i, gotD[i], baseD[i])
			}
		}
	}
}

// TestShardedFaultsMatchSerialPerSource runs a lossy workload under per-source
// fault hooks in both modes and requires identical verdict accounting.
func TestShardedFaultsMatchSerialPerSource(t *testing.T) {
	run := func(nodePar int) (sim.Time, LossReport) {
		cfg := DefaultConfig(4)
		cfg.NodePar = nodePar
		c := NewCluster(cfg)
		// Per-source drop-every-7th hook: state owned by one injector.
		fns := make([]SrcFaultFunc, 4)
		for i := range fns {
			count := 0
			fns[i] = func(now sim.Time, pkt *Packet) Verdict {
				count++
				if count%7 == 0 {
					return Drop()
				}
				return Deliver()
			}
		}
		c.Switch.FaultBySrc = fns
		c.SpawnAll("lossy", func(p *sim.Proc, nd *Node) {
			for i := 0; i < 40; i++ {
				for nd.Adapter.SendSpace() == 0 {
					p.Advance(US(2))
				}
				nd.Adapter.PushSend(&Packet{Dst: (nd.ID + 1) % 4, HdrBytes: 32})
				nd.Adapter.CommitLengths(p)
				for nd.Adapter.RecvPeek() != nil {
					nd.Pool.Put(nd.Adapter.RecvPop())
				}
			}
			for drained := false; !drained; {
				p.Advance(US(50))
				drained = nd.Adapter.RecvPeek() == nil
				for nd.Adapter.RecvPeek() != nil {
					nd.Pool.Put(nd.Adapter.RecvPop())
				}
			}
		})
		c.Run()
		return c.Eng.Now(), c.Losses()
	}
	baseT, baseL := run(1)
	if baseL.FaultDropped == 0 {
		t.Fatal("serial run dropped nothing")
	}
	for _, shards := range []int{2, 4} {
		gotT, gotL := run(shards)
		if gotT != baseT || gotL != baseL {
			t.Errorf("shards=%d: t=%v losses=%+v; serial t=%v losses=%+v",
				shards, gotT, gotL, baseT, baseL)
		}
	}
}

// TestSharedFaultFuncPanicsWhenSharded pins the guard: a single shared
// FaultFunc closure would be called from every shard.
func TestSharedFaultFuncPanicsWhenSharded(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.NodePar = 2
	c := NewCluster(cfg)
	c.Switch.Fault = DropIf(func(*Packet) bool { return false })
	defer func() {
		if recover() == nil {
			t.Fatal("sharded run with Switch.Fault did not panic")
		}
	}()
	c.Spawn(0, "tx", func(p *sim.Proc, nd *Node) {
		nd.Adapter.PushSend(&Packet{Dst: 1, HdrBytes: 32})
		nd.Adapter.CommitLengths(p)
		p.Advance(US(100))
	})
	c.Spawn(1, "rx", func(p *sim.Proc, nd *Node) {
		for nd.Adapter.RecvPeek() == nil {
			p.Advance(US(1))
		}
		nd.Pool.Put(nd.Adapter.RecvPop())
	})
	c.Run()
}

// TestTracerForcesSerial: observability implies one engine.
func TestTracerForcesSerial(t *testing.T) {
	old := DefaultNodePar
	DefaultNodePar = 4
	defer func() { DefaultNodePar = old }()
	c := NewCluster(DefaultConfig(4))
	if c.Shards() != 4 {
		t.Fatalf("DefaultNodePar=4 built %d shards, want 4", c.Shards())
	}
	cfg := DefaultConfig(4)
	cfg.NodePar = 4
	cfg.Tracer = trace.New()
	if tc := NewCluster(cfg); tc.Shards() != 1 {
		t.Fatalf("traced cluster built %d shards, want 1 (tracing forces serial)", tc.Shards())
	}
}
