package apps

import (
	"spam/internal/sim"
	"spam/internal/splitc"
)

// Radix-sort configuration: 8-bit digits over 32-bit keys, four passes,
// matching the classic Split-C radix benchmark structure.
const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixPasses  = 32 / radixBits
)

// RadixSortHeap returns the segment size needed per node.
func RadixSortHeap(totalKeys, nprocs int) int {
	n := totalKeys / nprocs
	// current keys + next keys + my histogram + all histograms (at root) +
	// global base table.
	return 4*n + 4*n + radixBuckets*4 + nprocs*radixBuckets*4 + nprocs*radixBuckets*4 + 4096
}

// RadixSort runs the parallel radix sort: each pass histograms the current
// digit, computes a global digit ranking (via stores to processor 0 and a
// broadcast back), and permutes every key to its global position. With
// bulk=false each key is stored individually ("rdxsort sm"); with
// bulk=true keys are first permuted locally by digit and shipped as
// contiguous runs ("rdxsort lg").
func RadixSort(pl splitc.Platform, totalKeys int, bulk bool) Result {
	P := pl.N()
	n := totalKeys / P

	offCur := 0
	offNext := 4 * n
	offHist := offNext + 4*n                 // my per-digit counts (root gathers)
	offAllHist := offHist + radixBuckets*4   // P histograms at root
	offBase := offAllHist + P*radixBuckets*4 // base[d][p] global start positions

	name := "rdxsort sm"
	if bulk {
		name = "rdxsort lg"
	}

	setup := func(p *sim.Proc, rt *splitc.RT) {
		rng := keyRand(777 + rt.ID())
		mem := rt.Mem()
		for i := 0; i < n; i++ {
			putU32(mem[offCur+4*i:], uint32(rng.Uint64()))
		}
	}

	body := func(p *sim.Proc, rt *splitc.RT) uint64 {
		me := rt.ID()
		mem := rt.Mem()

		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = getU32(mem[offCur+4*i:])
		}

		cnt := make([]int, radixBuckets)
		base := make([]int, radixBuckets) // my global start per digit

		for pass := 0; pass < radixPasses; pass++ {
			shift := uint(pass * radixBits)
			digit := func(k uint32) int { return int(k>>shift) & (radixBuckets - 1) }

			// Local histogram.
			for i := range cnt {
				cnt[i] = 0
			}
			for _, k := range keys {
				cnt[digit(k)]++
			}
			rt.Compute(p, sim.Time(n)*costHistogram)

			// Ship my histogram to processor 0.
			hist := make([]byte, radixBuckets*4)
			for d, c := range cnt {
				putU32(hist[4*d:], uint32(c))
			}
			rt.Store(p, splitc.GlobalPtr{Node: 0, Off: offAllHist + me*radixBuckets*4}, hist)
			rt.AllStoreSync(p)

			// Processor 0 prefix-sums over (digit, proc) and publishes the
			// global base table.
			if me == 0 {
				pos := 0
				for d := 0; d < radixBuckets; d++ {
					for q := 0; q < P; q++ {
						c := int(getU32(mem[offAllHist+q*radixBuckets*4+4*d:]))
						putU32(mem[offBase+(d*P+q)*4:], uint32(pos))
						pos += c
					}
				}
				rt.Compute(p, sim.Time(radixBuckets*P*10))
			}
			rt.BroadcastBytes(p, offBase, radixBuckets*P*4)
			for d := 0; d < radixBuckets; d++ {
				base[d] = int(getU32(mem[offBase+(d*P+me)*4:]))
			}

			// Permute keys to their global positions.
			if bulk {
				// Local stable partition by digit, then contiguous runs to
				// each destination.
				sorted := make([]uint32, 0, n)
				start := make([]int, radixBuckets)
				{
					s := 0
					for d := 0; d < radixBuckets; d++ {
						start[d] = s
						s += cnt[d]
					}
				}
				sorted = sorted[:n]
				fill := append([]int(nil), start...)
				for _, k := range keys {
					d := digit(k)
					sorted[fill[d]] = k
					fill[d]++
				}
				rt.Compute(p, sim.Time(n)*costScatter)
				for d := 0; d < radixBuckets; d++ {
					run := sorted[start[d] : start[d]+cnt[d]]
					pos := base[d]
					for len(run) > 0 {
						dest := pos / n
						destOff := pos % n
						take := n - destOff
						if take > len(run) {
							take = len(run)
						}
						buf := make([]byte, 4*take)
						for i := 0; i < take; i++ {
							putU32(buf[4*i:], run[i])
						}
						rt.Store(p, splitc.GlobalPtr{Node: dest, Off: offNext + 4*destOff}, buf)
						pos += take
						run = run[take:]
					}
				}
			} else {
				next := append([]int(nil), base...)
				var rec [4]byte
				for _, k := range keys {
					d := digit(k)
					pos := next[d]
					next[d]++
					putU32(rec[:], k)
					rt.Store(p, splitc.GlobalPtr{Node: pos / n, Off: offNext + 4*(pos%n)}, rec[:])
				}
				rt.Compute(p, sim.Time(n)*costScatter)
			}
			rt.AllStoreSync(p)

			// The received region becomes the working set.
			for i := range keys {
				keys[i] = getU32(mem[offNext+4*i:])
			}
		}

		// Publish final keys for verification and checksum them.
		var sum uint64
		for i, k := range keys {
			putU32(mem[offCur+4*i:], k)
			sum += uint64(k)
		}
		return sum
	}

	return timed(pl, name, setup, body)
}
