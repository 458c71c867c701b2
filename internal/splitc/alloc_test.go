package splitc_test

import (
	"testing"

	"spam/internal/sim"
	"spam/internal/splitc"
)

// remoteReads runs fn on node 0 of a 2-node SP AM platform; each call of
// read is one blocking 8-byte Read of node 1, which serves the reads from
// the barrier it waits in.
func remoteReads(fn func(read func())) {
	pl := splitc.NewSPAM(2, 64)
	pl.Run(func(p *sim.Proc, rt *splitc.RT) {
		if rt.ID() == 0 {
			gp := splitc.GlobalPtr{Node: 1}
			fn(func() { rt.Read(p, gp, 0, 8) })
		}
		rt.Barrier(p)
	})
}

// TestReadZeroAlloc holds the blocking Split-C read over SP AM to the AM
// layer's contract: in steady state, with tracing and metrics off, it
// performs zero heap allocations.
func TestReadZeroAlloc(t *testing.T) {
	var allocs float64
	remoteReads(func(read func()) {
		for i := 0; i < 256; i++ { // warm the pools
			read()
		}
		allocs = testing.AllocsPerRun(1000, read)
	})
	if allocs != 0 {
		t.Fatalf("%v heap allocations per 8-byte Read, want 0", allocs)
	}
}

// BenchmarkSplitCRead is the host time of the blocking 8-byte Read that the
// benchmark ladder's splitc.read_us rung times in simulated time.
func BenchmarkSplitCRead(b *testing.B) {
	b.ReportAllocs()
	remoteReads(func(read func()) {
		read()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
		b.StopTimer()
	})
}
