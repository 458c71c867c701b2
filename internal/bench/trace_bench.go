package bench

import "spam/internal/trace"

// TracedPingPong runs the ping-pong under s with a recorder of its own and
// returns it holding the timed trips only (eight warm-up trips are cut),
// with the measured round trip in microseconds. The recorder captures
// iters+1 request windows so DecomposeRoundTrip sees exactly iters complete
// iterations; pick iters a multiple of 16 so the lazy-pop MicroChannel
// amortization (one access per 16 pops) averages out exactly.
func TracedPingPong(s Setup, words, iters int) (*trace.Recorder, float64) {
	const warmup = 8
	rec := trace.New()
	s.Tracer = rec
	rtt, _ := PingPong(s, words, warmup, iters+1)
	// The warm-up ends where node 0 issues its first timed request: nothing
	// runs between the last warm-up reply and that request's first event.
	reqs := 0
	for i, e := range rec.Events() {
		if e.Kind == trace.EvReqStart && e.Node == 0 {
			if reqs == warmup {
				rec.Cut(i)
				break
			}
			reqs++
		}
	}
	return rec, rtt
}

// PingPongBreakdown runs a traced steady-state ping-pong and decomposes it.
// The returned breakdown's stage means sum to the measured round trip.
func PingPongBreakdown(words, iters int) (*trace.Breakdown, error) {
	rec, _ := TracedPingPong(Setup{}, words, iters)
	return trace.DecomposeRoundTrip(rec.Sorted())
}
