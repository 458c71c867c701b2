package mpi

import (
	"testing"
	"testing/quick"

	"spam/internal/sim"
)

func TestAllocatorGrabRelease(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		a := newAllocator(Options{Optimized: optimized})
		total := a.freeBytes()
		off1, _, ok := a.grab(100)
		if !ok {
			t.Fatal("grab failed on empty allocator")
		}
		off2, _, ok := a.grab(200)
		if !ok || off2 == off1 {
			t.Fatal("second grab overlapped or failed")
		}
		a.release(off1, 100)
		a.release(off2, 200)
		if got := a.freeBytes(); got != total {
			t.Fatalf("optimized=%v: free bytes %d after release, want %d", optimized, got, total)
		}
	}
}

func TestAllocatorBinsServeSmall(t *testing.T) {
	a := newAllocator(Optimized())
	// The first 8 small grabs must come from bins (fast path).
	for i := 0; i < numBins; i++ {
		_, bin, ok := a.grab(512)
		if !ok || !bin {
			t.Fatalf("grab %d: ok=%v bin=%v, want binned", i, ok, bin)
		}
	}
	// The 9th falls through to first-fit.
	_, bin, ok := a.grab(512)
	if !ok || bin {
		t.Fatalf("overflow grab: ok=%v bin=%v, want first-fit", ok, bin)
	}
}

func TestAllocatorExhaustionAndRecovery(t *testing.T) {
	a := newAllocator(Unoptimized())
	var offs []int
	for {
		off, _, ok := a.grab(1024)
		if !ok {
			break
		}
		offs = append(offs, off)
	}
	if len(offs) != 16 {
		t.Fatalf("got %d 1KB extents from 16KB, want 16", len(offs))
	}
	a.release(offs[3], 1024)
	if _, _, ok := a.grab(1024); !ok {
		t.Fatal("grab after release failed")
	}
}

// TestAllocatorPropertyNoOverlapConservation drives random grab/release
// sequences and checks extents never overlap and space is conserved.
func TestAllocatorPropertyNoOverlapConservation(t *testing.T) {
	check := func(seed uint64, optimized bool) bool {
		rng := sim.NewRand(seed)
		a := newAllocator(Options{Optimized: optimized})
		initial := a.freeBytes()
		type ext struct{ off, ln int }
		var live []ext
		used := 0
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				ln := 16 + rng.Intn(2000)
				off, _, ok := a.grab(ln)
				if !ok {
					continue
				}
				// No overlap with any live extent.
				for _, e := range live {
					if off < e.off+e.ln && e.off < off+ln {
						return false
					}
				}
				live = append(live, ext{off, ln})
				used += ln
			} else {
				i := rng.Intn(len(live))
				e := live[i]
				live = append(live[:i], live[i+1:]...)
				a.release(e.off, e.ln)
				used -= e.ln
			}
		}
		for _, e := range live {
			a.release(e.off, e.ln)
		}
		return a.freeBytes() == initial
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPackFreeRoundTrip checks the free-word encoding over its full range.
func TestPackFreeRoundTrip(t *testing.T) {
	if err := quick.Check(func(offRaw, lnRaw uint16) bool {
		off := int(offRaw) % (16 << 10)
		ln := int(lnRaw)%(16<<10) + 1
		gotOff, gotLn, ok := unpackFree(packFree(off, ln))
		return ok && gotOff == off && gotLn == ln
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := unpackFree(0); ok {
		t.Fatal("zero word must decode as no-free")
	}
}

// TestEnvelopeRoundTrip checks the buffered-message envelope codec,
// including negative (collective) tags.
func TestEnvelopeRoundTrip(t *testing.T) {
	if err := quick.Check(func(tag int32, size uint32, rdv uint32, prefix uint16) bool {
		b := make([]byte, envBytes)
		putEnv(b, int(tag), int(size), rdv, int(prefix))
		gt, gs, gr, gp := readEnv(b)
		return gt == int(tag) && gs == int(size) && gr == rdv && gp == int(prefix)
	}, nil); err != nil {
		t.Fatal(err)
	}
}
