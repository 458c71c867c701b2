package bench_test

import (
	"testing"

	"spam/internal/bench"
)

func TestNHalfInterpolation(t *testing.T) {
	c := bench.Curve{Name: "x", Points: []bench.Point{
		{N: 100, MBps: 10}, {N: 200, MBps: 20}, {N: 400, MBps: 40},
	}}
	if got := c.RInf(); got != 40 {
		t.Fatalf("r_inf = %v", got)
	}
	if got := c.NHalf(); got != 200 {
		t.Fatalf("n_1/2 = %v, want 200", got)
	}
}

func TestSizesLog(t *testing.T) {
	s := bench.SizesLog(16, 128)
	want := []int{16, 32, 64, 128}
	if len(s) != len(want) {
		t.Fatalf("sizes %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sizes %v, want %v", s, want)
		}
	}
	// Non-power-of-two top gets appended.
	s = bench.SizesLog(16, 100)
	if s[len(s)-1] != 100 {
		t.Fatalf("sizes %v should end at 100", s)
	}
}

// TestFigure8ThinShape pins the Figure-8 ordering on thin nodes at small
// sizes: am_store < optimized MPI-AM < unoptimized MPI-AM, and optimized
// MPI-AM below MPI-F ("on thin nodes MPI over AM achieves a lower
// small-message latency than MPI-F").
func TestFigure8ThinShape(t *testing.T) {
	raw := bench.MPIRingLatency(bench.Setup{}, bench.AMStoreRaw, 16)
	opt := bench.MPIRingLatency(bench.Setup{}, bench.MPIAMOpt, 16)
	unopt := bench.MPIRingLatency(bench.Setup{}, bench.MPIAMUnopt, 16)
	f := bench.MPIRingLatency(bench.Setup{}, bench.MPIF, 16)
	t.Logf("thin 16B/hop: am_store %.1f, opt %.1f, unopt %.1f, MPI-F %.1f", raw, opt, unopt, f)
	if !(raw < opt && opt < unopt) {
		t.Errorf("expected am_store < optimized < unoptimized, got %.1f, %.1f, %.1f", raw, opt, unopt)
	}
	if !(opt < f) {
		t.Errorf("optimized MPI-AM (%.1f) should beat MPI-F (%.1f) on thin nodes", opt, f)
	}
}

// TestFigure10WideCrossover pins the Figure-10/11 wide-node claim: MPI-F
// is faster for very small messages but slower for larger ones.
func TestFigure10WideCrossover(t *testing.T) {
	wide := bench.Setup{Wide: true}
	amSmall := bench.MPIRingLatency(wide, bench.MPIAMOpt, 16)
	fSmall := bench.MPIRingLatency(wide, bench.MPIF, 16)
	amBig := bench.MPIRingLatency(wide, bench.MPIAMOpt, 4096)
	fBig := bench.MPIRingLatency(wide, bench.MPIF, 4096)
	t.Logf("wide 16B: AM %.1f vs F %.1f; wide 4KB: AM %.1f vs F %.1f",
		amSmall, fSmall, amBig, fBig)
	if !(fSmall < amSmall) {
		t.Errorf("MPI-F (%.1f) should beat MPI-AM (%.1f) for tiny messages on wide nodes", fSmall, amSmall)
	}
	if !(amBig < fBig) {
		t.Errorf("MPI-AM (%.1f) should beat MPI-F (%.1f) for large messages on wide nodes", amBig, fBig)
	}
}

// TestFigure9MidrangeAdvantage pins the paper's headline MPI result: the
// optimized MPI-AM outperforms MPI-F by 10-30%% in the 8-64KB range on
// thin nodes.
func TestFigure9MidrangeAdvantage(t *testing.T) {
	const total = 1 << 19
	for _, n := range []int{16384, 32768} {
		am := bench.MPIBandwidth(bench.Setup{}, bench.MPIAMOpt, n, total)
		f := bench.MPIBandwidth(bench.Setup{}, bench.MPIF, n, total)
		t.Logf("thin %dB: MPI-AM %.2f MB/s vs MPI-F %.2f MB/s (+%.0f%%)", n, am, f, (am/f-1)*100)
		if am <= f {
			t.Errorf("MPI-AM (%.2f) should beat MPI-F (%.2f) at %dB on thin nodes", am, f, n)
		}
	}
}

// TestFigure7HybridBest pins Figure 7: the hybrid protocol avoids the
// buffered/rendezvous switch discontinuity and reaches at least the
// bandwidth of both pure protocols at large sizes.
func TestFigure7HybridBest(t *testing.T) {
	const total = 1 << 19
	for _, n := range []int{32768, 131072} {
		rdv := bench.MPIBandwidth(bench.Setup{}, bench.MPIRdvOnly, n, total)
		hyb := bench.MPIBandwidth(bench.Setup{}, bench.MPIHybrid, n, total)
		t.Logf("%dB: rendezvous %.2f, hybrid %.2f MB/s", n, rdv, hyb)
		if hyb < rdv*0.97 {
			t.Errorf("hybrid (%.2f) fell below rendezvous (%.2f) at %dB", hyb, rdv, n)
		}
	}
}

// TestAMStoreRingSanity checks the am_store lower-bound series is sane.
func TestAMStoreRingSanity(t *testing.T) {
	hop16 := bench.MPIRingLatency(bench.Setup{}, bench.AMStoreRaw, 16)
	hop4k := bench.MPIRingLatency(bench.Setup{}, bench.AMStoreRaw, 4096)
	if hop16 < 20 || hop16 > 50 {
		t.Errorf("am_store 16B per hop = %.1fus, expected ~30", hop16)
	}
	if hop4k <= hop16 {
		t.Errorf("4KB hop (%.1f) should exceed 16B hop (%.1f)", hop4k, hop16)
	}
}
