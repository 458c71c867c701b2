package bench

import (
	"fmt"
	"io"
)

// WriteTable3 writes the Table-3 performance summary (round trips,
// asymptotic bandwidth, half-power points) exactly as `spam-bench -table 3`
// prints it — factored out so the golden-results guard can regenerate the
// checked-in results/table3.txt from a test.
func WriteTable3(w io.Writer, s Setup, total int) {
	fmt.Fprintln(w, "# Table 3: performance summary, SP AM vs IBM MPL")
	amRTT, _ := PingPong(s, 1, 1, 30)
	mplRTT := MPLRoundTrip(s, 30)
	raw := rawRoundTrip(s, 30)
	fmt.Fprintf(w, "one-word round-trip:  AM %6.1f us   MPL %6.1f us   raw %6.1f us\n", amRTT, mplRTT, raw)
	fmt.Fprintln(w, "# paper: AM 51.0, MPL 88.0, raw ~47")

	amR, _ := Bandwidth(s, AsyncStore, 1<<20, total)
	mplR := MPLBandwidth(s, false, 1<<20, total)
	fmt.Fprintf(w, "asymptotic bandwidth: AM %6.2f MB/s MPL %6.2f MB/s\n", amR, mplR)
	fmt.Fprintln(w, "# paper: AM 34.3, MPL 34.6")

	sizes := []int{64, 128, 192, 256, 320, 512, 1024, 2048, 4096, 16384, 65536, 1 << 20}
	amC := AMBandwidthCurve(s, AsyncStore, sizes, total)
	mplC := MPLBandwidthCurve(s, false, sizes, total)
	fmt.Fprintf(w, "half-power point:     AM %6.0f B    MPL %6.0f B (non-blocking)\n",
		amC.NHalf(), mplC.NHalf())
	amS := AMBandwidthCurve(s, SyncStore, sizes, total)
	mplB := MPLBandwidthCurve(s, true, sizes, total)
	fmt.Fprintf(w, "half-power point:     AM %6.0f B    MPL %6.0f B (blocking)\n",
		amS.NHalf(), mplB.NHalf())
}
