package nas_test

import (
	"math"
	"math/cmplx"
	"testing"

	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/nas"
	"spam/internal/sim"
)

// runOn executes a kernel on a fresh cluster with the chosen MPI.
func runOn(impl string, n int, bench string, k nas.Kernel) nas.Result {
	cluster := hw.NewCluster(hw.DefaultConfig(n))
	return nas.Run(cluster, commsOn(impl, cluster), bench, impl, k)
}

// commsOn builds the chosen MPI over cluster.
func commsOn(impl string, cluster *hw.Cluster) []mpi.PT {
	var comms []mpi.PT
	switch impl {
	case "mpi-am":
		sys := mpi.New(cluster, mpi.Optimized())
		for _, c := range sys.Comms {
			comms = append(comms, c)
		}
	case "mpi-am-unopt":
		sys := mpi.New(cluster, mpi.Unoptimized())
		for _, c := range sys.Comms {
			comms = append(comms, c)
		}
	case "mpi-f":
		sys := mpi.NewF(cluster)
		for _, c := range sys.Comms {
			comms = append(comms, c)
		}
	default:
		panic("unknown impl " + impl)
	}
	return comms
}

// checkAgree runs the kernel on MPI-AM and MPI-F and requires bit-equal
// checksums: the kernels do real arithmetic, so any communication bug
// (lost message, wrong offset, reordering) diverges the values.
func checkAgree(t *testing.T, name string, n int, k nas.Kernel) (amSec, fSec float64) {
	t.Helper()
	am := runOn("mpi-am", n, name, k)
	f := runOn("mpi-f", n, name, k)
	if am.Checksum != f.Checksum {
		t.Fatalf("%s: checksum differs: MPI-AM %v vs MPI-F %v", name, am.Checksum, f.Checksum)
	}
	if am.Checksum == 0 || math.IsNaN(am.Checksum) {
		t.Fatalf("%s: degenerate checksum %v", name, am.Checksum)
	}
	if am.Seconds <= 0 || f.Seconds <= 0 {
		t.Fatalf("%s: non-positive times %v %v", name, am.Seconds, f.Seconds)
	}
	t.Logf("%s: MPI-AM %.4fs, MPI-F %.4fs, ratio %.2f (checksum %g)",
		name, am.Seconds, f.Seconds, am.Seconds/f.Seconds, am.Checksum)
	return am.Seconds, f.Seconds
}

func TestFTSmall(t *testing.T) {
	checkAgree(t, "FT", 4, nas.FT(nas.FTConfig{N: 16, Iters: 2}))
}

func TestMGSmall(t *testing.T) {
	checkAgree(t, "MG", 4, nas.MG(nas.MGConfig{N: 32, Iters: 2, Levels: 2}))
}

func TestLUSmall(t *testing.T) {
	checkAgree(t, "LU", 4, nas.LU(nas.LUConfig{N: 16, Iters: 3}))
}

func TestBTSmall(t *testing.T) {
	cfg := nas.DefaultBT()
	cfg.N, cfg.Iters = 16, 3
	checkAgree(t, "BT", 4, nas.ADI(cfg))
}

func TestSPSmall(t *testing.T) {
	cfg := nas.DefaultSP()
	cfg.N, cfg.Iters = 16, 3
	checkAgree(t, "SP", 4, nas.ADI(cfg))
}

// TestPencilKernelsPinned pins LU, BT and SP on a non-square 3x2 process
// grid to exact simulated seconds, checksum and event count. checkAgree only
// compares the two stacks with each other, on a square grid, so a
// decomposition bug that both stacks share, or one that only an unequal px
// and py shows, would pass it; these values would move.
func TestPencilKernelsPinned(t *testing.T) {
	lu := nas.LU(nas.LUConfig{N: 24, Iters: 3})
	bt := nas.ADI(nas.ADIConfig{N: 24, Iters: 3, FlopsPerPoint: 250, FacesPerSweep: 2})
	sp := nas.ADI(nas.ADIConfig{N: 24, Iters: 6, FlopsPerPoint: 120, FacesPerSweep: 3})
	for _, tc := range []struct {
		bench, impl string
		k           nas.Kernel
		seconds     float64
		checksum    float64
		events      int64
	}{
		{"LU", "mpi-f", lu, 0.116103444, 36.763064254617625, 127144},
		{"LU", "mpi-am", lu, 0.131049442, 36.763064254617625, 230015},
		{"BT", "mpi-f", bt, 0.269193916, 72.71071659199745, 72722},
		{"BT", "mpi-am", bt, 0.26958668, 72.71071659199745, 79537},
		{"SP", "mpi-f", sp, 0.27869813, 50.70838412585319, 213338},
		{"SP", "mpi-am", sp, 0.279396598, 50.70838412585319, 213972},
	} {
		cluster := hw.NewCluster(hw.DefaultConfig(6))
		r := nas.Run(cluster, commsOn(tc.impl, cluster), tc.bench, tc.impl, tc.k)
		if r.Seconds != tc.seconds || r.Checksum != tc.checksum || cluster.Eng.EventsRun != tc.events {
			t.Errorf("%s over %s: got %v s, checksum %v, %d events; want %v s, checksum %v, %d events",
				tc.bench, tc.impl, r.Seconds, r.Checksum, cluster.Eng.EventsRun, tc.seconds, tc.checksum, tc.events)
		}
	}
}

// TestSlabKernelsPinned pins FT and MG, the slab-decomposed kernels, at
// checkAgree's sizes on 4 ranks to exact simulated seconds, checksum bits
// and event count over both stacks. checkAgree only compares the stacks
// with each other, so a host-loop change that moved both checksums alike
// would pass it; these values would move.
func TestSlabKernelsPinned(t *testing.T) {
	ft := nas.FT(nas.FTConfig{N: 16, Iters: 2})
	mg := nas.MG(nas.MGConfig{N: 32, Iters: 2, Levels: 2})
	for _, tc := range []struct {
		bench, impl string
		k           nas.Kernel
		seconds     float64
		checksum    uint64
		events      int64
	}{
		{"FT", "mpi-f", ft, 0.009465076, 0x40fe88c40c7b2268, 11528}, // checksum 125068.25304711761
		{"FT", "mpi-am", ft, 0.009364572, 0x40fe88c40c7b2268, 17329},
		{"MG", "mpi-f", mg, 0.034693592, 0x402522ea6befcbba, 58101}, // checksum 10.568194745084714
		{"MG", "mpi-am", mg, 0.032571272, 0x402522ea6befcbba, 57329},
	} {
		cluster := hw.NewCluster(hw.DefaultConfig(4))
		r := nas.Run(cluster, commsOn(tc.impl, cluster), tc.bench, tc.impl, tc.k)
		if r.Seconds != tc.seconds || math.Float64bits(r.Checksum) != tc.checksum || cluster.Eng.EventsRun != tc.events {
			t.Errorf("%s over %s: got %v s, checksum %#x, %d events; want %v s, checksum %#x, %d events",
				tc.bench, tc.impl, r.Seconds, math.Float64bits(r.Checksum), cluster.Eng.EventsRun, tc.seconds, tc.checksum, tc.events)
		}
	}
}

func TestUnoptimizedAMSlower(t *testing.T) {
	// The paper's optimizations must matter on a communication-heavy
	// kernel: unoptimized MPI-AM should not beat the optimized one.
	cfg := nas.FTConfig{N: 16, Iters: 2}
	opt := runOn("mpi-am", 4, "FT", nas.FT(cfg))
	unopt := runOn("mpi-am-unopt", 4, "FT", nas.FT(cfg))
	if unopt.Checksum != opt.Checksum {
		t.Fatalf("configs disagree on results: %v vs %v", unopt.Checksum, opt.Checksum)
	}
	if unopt.Seconds < opt.Seconds*0.98 {
		t.Fatalf("unoptimized (%.4fs) beat optimized (%.4fs)", unopt.Seconds, opt.Seconds)
	}
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	// Validate the radix-2 FFT against a direct DFT on a small input.
	n := 16
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(float64(i%5)-2, float64(i%3))
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += in[j] * cmplx.Rect(1, ang)
		}
		want[k] = s
	}
	got := append([]complex128(nil), in...)
	nas.FFTForTest(got, false)
	for k := 0; k < n; k++ {
		if cmplx.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, want %v", k, got[k], want[k])
		}
	}
	// Round trip.
	nas.FFTForTest(got, true)
	for k := 0; k < n; k++ {
		if cmplx.Abs(got[k]-in[k]) > 1e-9 {
			t.Fatalf("inverse FFT mismatch at %d", k)
		}
	}
}

func TestProcGrid(t *testing.T) {
	for _, tc := range []struct{ p, px, py int }{
		{16, 4, 4}, {4, 2, 2}, {8, 4, 2}, {2, 2, 1}, {1, 1, 1}, {12, 4, 3},
	} {
		px, py := nas.ProcGrid2DForTest(tc.p)
		if px*py != tc.p {
			t.Fatalf("grid %dx%d != %d", px, py, tc.p)
		}
		if px != tc.px || py != tc.py {
			t.Fatalf("P=%d: got %dx%d, want %dx%d", tc.p, px, py, tc.px, tc.py)
		}
	}
}

var _ = sim.Time(0)

// TestFFTPropertyRoundTrip checks inverse(FFT(x)) == x and Parseval's
// identity on random inputs.
func TestFFTPropertyRoundTrip(t *testing.T) {
	rng := sim.NewRand(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 << (2 + rng.Intn(7)) // 4..512
		in := make([]complex128, n)
		var timeEnergy float64
		for i := range in {
			in[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			timeEnergy += real(in[i])*real(in[i]) + imag(in[i])*imag(in[i])
		}
		x := append([]complex128(nil), in...)
		nas.FFTForTest(x, false)
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		if d := freqEnergy/float64(n) - timeEnergy; d > 1e-9*timeEnergy+1e-12 || d < -1e-9*timeEnergy-1e-12 {
			t.Fatalf("n=%d: Parseval violated: %v vs %v", n, freqEnergy/float64(n), timeEnergy)
		}
		nas.FFTForTest(x, true)
		for i := range x {
			if cmplx.Abs(x[i]-in[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip diverged at %d", n, i)
			}
		}
	}
}

// BenchmarkNASKernels is the host-time row of the nas layer: one kernel run
// per op at benchmark/'s mpi_nas sizes, FT {64, 2} and MG {128, 1, 3} on 16
// nodes over optimized MPI-AM, timed around nas.Run only (the cluster and
// the comms are built with the timer stopped). events/op is deterministic:
// a host-time change with it unchanged is a change in the cost per event or
// in the kernels' own arithmetic, not in what the simulation does.
func BenchmarkNASKernels(b *testing.B) {
	for _, bc := range []struct {
		name string
		k    nas.Kernel
	}{
		{"FT", nas.FT(nas.FTConfig{N: 64, Iters: 2})},
		{"MG", nas.MG(nas.MGConfig{N: 128, Iters: 1, Levels: 3})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cluster := hw.NewCluster(hw.DefaultConfig(16))
				comms := commsOn("mpi-am", cluster)
				b.StartTimer()
				nas.Run(cluster, comms, bc.name, "mpi-am", bc.k)
				events = cluster.Eng.EventsRun
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}
