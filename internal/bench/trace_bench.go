package bench

import "spam/internal/trace"

// TracedPingPong runs the ping-pong with a trace recorder attached,
// returning the recorder (it holds only the timed trips) and the measured
// round trip in microseconds. The recorder captures iters+1 request windows
// so DecomposeRoundTrip sees exactly iters complete iterations; pick iters
// a multiple of 16 so the lazy-pop MicroChannel amortization (one access
// per 16 pops) averages out exactly.
func TracedPingPong(words, warmup, iters int) (*trace.Recorder, float64) {
	rec := trace.New()
	rtt, _ := PingPong(Setup{Tracer: rec}, words, warmup, iters+1)
	return rec, rtt
}

// PingPongBreakdown runs a traced steady-state ping-pong and decomposes it.
// The returned breakdown's stage means sum to the measured round trip.
func PingPongBreakdown(words, iters int) (*trace.Breakdown, error) {
	rec, _ := TracedPingPong(words, 8, iters)
	return trace.DecomposeRoundTrip(rec.Sorted(), 0, 1)
}
