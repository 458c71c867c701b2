package hw

import (
	"testing"

	"spam/internal/sim"
)

// BenchmarkPacketPath is the host-time row of the adapter's packet
// pipeline: node 0 pushes 224-byte payloads (PushSend, CommitLengths) to
// node 1, which pops each one and returns it to the pool (RecvPop, Put).
// At most a send FIFO's worth of packets is in flight (the switch queues
// without limit, so an open sender would grow its backlog with b.N); both
// sides wait in 1 µs steps. The timer runs from the end of a warm-up until
// the last packet is popped; events/op is deterministic for a given b.N.
func BenchmarkPacketPath(b *testing.B) {
	const warm = 64
	c := NewCluster(DefaultConfig(2))
	payload := make([]byte, PacketDataSize)
	var events int64
	got := 0
	b.ReportAllocs()
	c.Spawn(0, "tx", func(p *sim.Proc, n *Node) {
		for i := 0; i < warm+b.N; i++ {
			if i == warm {
				b.ResetTimer()
				events = c.Eng.EventsRun
			}
			for i-got >= SendFIFOEntries {
				p.Advance(US(1))
			}
			n.Adapter.PushSend(1, PacketHeaderSize, &Header{Seq: uint64(i)}, payload)
			n.Adapter.CommitLengths(p)
		}
	})
	c.Spawn(1, "rx", func(p *sim.Proc, n *Node) {
		for got < warm+b.N {
			pkt := n.Adapter.RecvPop()
			if pkt == nil {
				p.Advance(US(1))
				continue
			}
			n.Pool.Put(pkt)
			got++
		}
		b.StopTimer()
		events = c.Eng.EventsRun - events
	})
	c.Run()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
