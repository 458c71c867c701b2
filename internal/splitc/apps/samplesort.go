package apps

import (
	"sort"

	"spam/internal/sim"
	"spam/internal/splitc"
)

// sample-sort layout constants.
const oversample = 32

// SampleSortHeap returns the segment size needed per node.
func SampleSortHeap(totalKeys, nprocs int) int {
	n := totalKeys / nprocs
	// local keys + per-sender receive regions (worst-case n each) +
	// per-sender counts + sample area + splitters.
	return 4*n + nprocs*4*n + nprocs*4 + nprocs*oversample*4 + nprocs*4 + 4096
}

// SampleSort runs the paper's sample sort over totalKeys 31-bit keys on
// pl's processors. With bulk=false every key travels as its own 4-byte
// store (the "smpsort sm" fine-grained variant whose performance tracks
// message overhead); with bulk=true each processor sends one bulk store
// per destination ("smpsort lg").
func SampleSort(pl splitc.Platform, totalKeys int, bulk bool) Result {
	P := pl.N()
	n := totalKeys / P

	// Segment layout.
	offKeys := 0                            // n keys
	offRecv := 4 * n                        // P regions of n keys each
	offCounts := offRecv + P*4*n            // P counts (keys valid per sender)
	offSamples := offCounts + P*4           // P*oversample sample keys
	offSplit := offSamples + P*oversample*4 // P-1 splitters

	name := "smpsort sm"
	if bulk {
		name = "smpsort lg"
	}

	setup := func(p *sim.Proc, rt *splitc.RT) {
		rng := keyRand(rt.ID())
		mem := rt.Mem()
		for i := 0; i < n; i++ {
			putU32(mem[offKeys+4*i:], uint32(rng.Int31()))
		}
	}

	body := func(p *sim.Proc, rt *splitc.RT) uint64 {
		me := rt.ID()
		mem := rt.Mem()
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = getU32(mem[offKeys+4*i:])
		}

		// Phase 1: sampling. Each processor stores `oversample` samples
		// into processor 0's sample region.
		rng := keyRand(12000 + me)
		samples := make([]byte, oversample*4)
		for i := 0; i < oversample; i++ {
			putU32(samples[4*i:], keys[rng.Intn(n)])
		}
		rt.Store(p, splitc.GlobalPtr{Node: 0, Off: offSamples + me*oversample*4}, samples)
		rt.AllStoreSync(p)

		// Phase 2: processor 0 sorts the samples and selects splitters.
		if me == 0 {
			all := make([]uint32, P*oversample)
			for i := range all {
				all[i] = getU32(mem[offSamples+4*i:])
			}
			sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
			rt.Compute(p, nsPerKeySort(len(all)))
			for s := 0; s < P-1; s++ {
				putU32(mem[offSplit+4*s:], all[(s+1)*oversample])
			}
		}
		rt.BroadcastBytes(p, offSplit, (P-1)*4)
		split := make([]uint32, P-1)
		for s := range split {
			split[s] = getU32(mem[offSplit+4*s:])
		}

		// Phase 3: partition and route keys. Destination regions are
		// partitioned per sender, so stores need no remote coordination.
		destOf := func(k uint32) int {
			return sort.Search(P-1, func(s int) bool { return k < split[s] })
		}
		rt.Compute(p, sim.Time(n*costPartition*3)) // splitter binary search

		if bulk {
			buckets := make([][]byte, P)
			for _, k := range keys {
				d := destOf(k)
				var rec [4]byte
				putU32(rec[:], k)
				buckets[d] = append(buckets[d], rec[:]...)
			}
			rt.Compute(p, sim.Time(n)*costScatter)
			for d := 0; d < P; d++ {
				if len(buckets[d]) > 0 {
					rt.Store(p, splitc.GlobalPtr{Node: d, Off: offRecv + me*4*n}, buckets[d])
				}
				var cnt [4]byte
				putU32(cnt[:], uint32(len(buckets[d])/4))
				rt.Store(p, splitc.GlobalPtr{Node: d, Off: offCounts + me*4}, cnt[:])
			}
		} else {
			next := make([]int, P)
			var rec [4]byte
			for _, k := range keys {
				d := destOf(k)
				putU32(rec[:], k)
				rt.Store(p, splitc.GlobalPtr{Node: d, Off: offRecv + me*4*n + 4*next[d]}, rec[:])
				next[d]++
			}
			var cnt [4]byte
			for d := 0; d < P; d++ {
				putU32(cnt[:], uint32(next[d]))
				rt.Store(p, splitc.GlobalPtr{Node: d, Off: offCounts + me*4}, cnt[:])
			}
		}
		rt.AllStoreSync(p)

		// Phase 4: local sort of everything received.
		var mine []uint32
		for s := 0; s < P; s++ {
			cnt := int(getU32(mem[offCounts+s*4:]))
			for i := 0; i < cnt; i++ {
				mine = append(mine, getU32(mem[offRecv+s*4*n+4*i:]))
			}
		}
		sort.Slice(mine, func(a, b int) bool { return mine[a] < mine[b] })
		rt.Compute(p, nsPerKeySort(len(mine)))

		// Write the sorted run back for verification, and checksum.
		var sum uint64
		for i, k := range mine {
			putU32(mem[offKeys+4*i:], k)
			sum += uint64(k)
		}
		putU32(mem[offCounts+me*4:], uint32(len(mine))) // my final count, reused by tests
		return sum
	}

	return timed(pl, name, setup, body)
}

// SampleSortLayout exposes the segment offsets tests need to verify the
// sorted output in place.
func SampleSortLayout(totalKeys, nprocs int) (offKeys, offCounts int) {
	n := totalKeys / nprocs
	return 0, 4*n + nprocs*4*n
}
