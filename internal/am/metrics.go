package am

import "spam/internal/trace"

// Accepted and never read: benchmark/ checks that it is nil. A registry
// reaches an AM system by EnableMetrics.
var DefaultMetrics *trace.Registry

// sysMetrics caches the histogram handles the hot paths sample, so a
// metrics-enabled run pays two pointer loads and an integer op per sample —
// and a disabled run (nil *sysMetrics) pays one nil check. Counts are not
// here: they live in Stats and are published once, at run end.
type sysMetrics struct {
	reg *trace.Registry

	recvFIFO  *trace.Histogram // receive-FIFO occupancy seen at each poll
	pollBatch *trace.Histogram // packets drained per poll
	inflight  *trace.Histogram // window occupancy at each short injection
	sendFIFO  *trace.Histogram // send-FIFO occupancy at each injection
	rtoNS     *trace.Histogram // RTO estimate (ns) after each RTT sample
	detectNS  *trace.Histogram // kill-to-declaration latency (ns)
}

// EnableMetrics publishes this system's protocol metrics into reg: the
// histograms live, sampled as the run goes, and the tagged Stats fields
// summed over the endpoints once the cluster's run is over. All endpoints
// share the handles (the registry aggregates cluster-wide, which is what the
// bench reports want).
func (s *System) EnableMetrics(reg *trace.Registry) {
	s.met = &sysMetrics{
		reg:       reg,
		recvFIFO:  reg.Histogram("am.recv_fifo_occupancy"),
		pollBatch: reg.Histogram("am.poll_batch"),
		inflight:  reg.Histogram("am.window_inflight"),
		sendFIFO:  reg.Histogram("am.send_fifo_occupancy"),
		rtoNS:     reg.Histogram("am.rto_ns"),
		detectNS:  reg.Histogram("am.death_detect_ns"),
	}
	s.Cluster.OnRunEnd(func() { s.fold(reg) })
}

// Metrics returns the registry this system publishes into, nil when metrics
// are off. Layers built on the system publish their own counters there.
func (s *System) Metrics() *trace.Registry {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}

// Totals aggregates protocol statistics across all endpoints of a system.
func (s *System) Totals() Stats { return s.fold(nil) }

// fold sums the endpoints' Stats in node order and, with a registry,
// publishes each tagged field into it.
func (s *System) fold(reg *trace.Registry) Stats {
	var t Stats
	for _, ep := range s.EPs {
		trace.Fold(&t, &ep.Stats, reg)
	}
	return t
}
