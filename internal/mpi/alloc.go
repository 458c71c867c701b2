package mpi

// allocator manages a sender's view of its buffered region at one
// receiver. The unoptimized version runs first-fit over the whole region —
// which profiling showed was "a major cost in sending small messages"
// (§4.2) — and the optimized version serves small messages from fixed
// 1 KB bins, falling back to first-fit only for intermediate sizes.
type allocator struct {
	binned  bool
	binSize int
	bins    []bool // occupancy of the 8 bins at the front of the region
	ffBase  int    // first-fit arena start
	ffLen   int
	holes   []hole // free extents, sorted by offset
}

type hole struct{ off, ln int }

const numBins = 8

func newAllocator(opt Options) allocator {
	a := allocator{binned: opt.Optimized, binSize: 1 << 10}
	if a.binned {
		a.bins = make([]bool, numBins)
		a.ffBase = numBins * a.binSize
	}
	a.ffLen = perPeerBuf - a.ffBase
	a.holes = []hole{{off: a.ffBase, ln: a.ffLen}}
	return a
}

// grab allocates ln bytes, returning the region offset and whether the
// binned fast path served it; ok=false when no space is available.
func (a *allocator) grab(ln int) (off int, bin bool, ok bool) {
	if a.binned && ln <= a.binSize {
		for i, used := range a.bins {
			if !used {
				a.bins[i] = true
				return i * a.binSize, true, true
			}
		}
		// All bins busy: fall through to first-fit.
	}
	for i, h := range a.holes {
		if h.ln >= ln {
			off = h.off
			if h.ln == ln {
				a.holes = append(a.holes[:i], a.holes[i+1:]...)
			} else {
				a.holes[i] = hole{off: h.off + ln, ln: h.ln - ln}
			}
			return off, false, true
		}
	}
	return 0, false, false
}

// release returns an extent; bin extents are recognized by offset.
func (a *allocator) release(off, ln int) {
	if a.binned && off < a.ffBase {
		a.bins[off/a.binSize] = false
		return
	}
	// Insert sorted and coalesce with neighbors.
	i := 0
	for i < len(a.holes) && a.holes[i].off < off {
		i++
	}
	a.holes = append(a.holes, hole{})
	copy(a.holes[i+1:], a.holes[i:])
	a.holes[i] = hole{off: off, ln: ln}
	// Coalesce right then left.
	if i+1 < len(a.holes) && a.holes[i].off+a.holes[i].ln == a.holes[i+1].off {
		a.holes[i].ln += a.holes[i+1].ln
		a.holes = append(a.holes[:i+1], a.holes[i+2:]...)
	}
	if i > 0 && a.holes[i-1].off+a.holes[i-1].ln == a.holes[i].off {
		a.holes[i-1].ln += a.holes[i].ln
		a.holes = append(a.holes[:i], a.holes[i+1:]...)
	}
}

// freeBytes reports total free first-fit space (diagnostics).
func (a *allocator) freeBytes() int {
	n := 0
	for _, h := range a.holes {
		n += h.ln
	}
	if a.binned {
		for _, used := range a.bins {
			if !used {
				n += a.binSize
			}
		}
	}
	return n
}
