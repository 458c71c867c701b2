package am_test

import (
	"testing"

	"spam/internal/bench"
)

// within asserts got is within frac of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	lo, hi := want*(1-frac), want*(1+frac)
	if got < lo || got > hi {
		t.Errorf("%s = %.2f, want %.2f +/- %.0f%% [%.2f, %.2f]",
			name, got, want, frac*100, lo, hi)
	} else {
		t.Logf("%s = %.2f (paper: %.2f)", name, got, want)
	}
}

// TestCalibRoundTrip pins the paper's §2.3 numbers: a one-word AM round
// trip of 51.0 µs, rising ~0.5 µs per additional word, against a raw
// (protocol-less) round trip of ~47 µs.
func TestCalibRoundTrip(t *testing.T) {
	rtt1, _ := bench.PingPong(bench.Setup{}, 1, 1, 20)
	within(t, "AM 1-word RTT (us)", rtt1, 51.0, 0.05)

	rtt4, _ := bench.PingPong(bench.Setup{}, 4, 1, 20)
	perWord := (rtt4 - rtt1) / 3
	if perWord < 0.2 || perWord > 1.0 {
		t.Errorf("per-word RTT increase = %.2fus, want ~0.5us", perWord)
	} else {
		t.Logf("per-word RTT increase = %.2fus (paper: ~0.5us)", perWord)
	}

	raw := bench.RawRoundTrip(20)
	within(t, "raw RTT (us)", raw, 47.0, 0.06)
	if rtt1-raw < 2 || rtt1-raw > 7 {
		t.Errorf("protocol overhead = %.2fus, paper says ~4us", rtt1-raw)
	}
}

// TestCalibTable2 pins the am_request_N / am_reply_N call costs.
func TestCalibTable2(t *testing.T) {
	wantReq := []float64{7.7, 7.9, 8.0, 8.2}
	wantRep := []float64{4.0, 4.1, 4.3, 4.4}
	for n := 1; n <= 4; n++ {
		within(t, "am_request cost (us)", bench.RequestCost(bench.Setup{}, n), wantReq[n-1], 0.06)
		within(t, "am_reply cost (us)", bench.ReplyCost(bench.Setup{}, n), wantRep[n-1], 0.08)
	}
}

// TestCalibBandwidth pins r_inf at 34.3 MB/s and the async-store half-power
// point near 260 bytes (§2.4, Table 3).
func TestCalibBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep is slow")
	}
	r := bench.AMBandwidth(bench.AsyncStore, 1<<20, 1<<20)
	within(t, "r_inf async store (MB/s)", r, 34.3, 0.03)

	sizes := []int{64, 128, 192, 256, 320, 512, 1024, 4096, 16384, 65536, 1 << 20}
	cur := bench.AMBandwidthCurve(bench.Setup{}, bench.AsyncStore, sizes, 1<<20)
	nh := cur.NHalf()
	within(t, "n_1/2 async store (bytes)", nh, 260, 0.30)

	syncStore := bench.AMBandwidthCurve(bench.Setup{}, bench.SyncStore,
		[]int{256, 512, 800, 1024, 2048, 4096, 16384, 65536, 1 << 20}, 1<<20)
	t.Logf("n_1/2 sync store = %.0f bytes (paper: ~800)", syncStore.NHalf())

	syncGet := bench.AMBandwidthCurve(bench.Setup{}, bench.SyncGet,
		[]int{256, 512, 1024, 2048, 3072, 4096, 16384, 65536, 1 << 20}, 1<<20)
	t.Logf("n_1/2 sync get = %.0f bytes (paper: ~3000)", syncGet.NHalf())
	if syncGet.NHalf() <= syncStore.NHalf() {
		t.Errorf("sync get n_1/2 (%.0f) should exceed sync store n_1/2 (%.0f)",
			syncGet.NHalf(), syncStore.NHalf())
	}
}
