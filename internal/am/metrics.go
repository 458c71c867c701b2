package am

import "spam/internal/trace"

// Accepted and never read: benchmark/ checks that it is nil. A registry
// reaches an AM system by EnableMetrics.
var DefaultMetrics *trace.Registry

// sysMetrics caches the typed metric handles the hot paths touch, so a
// metrics-enabled run pays two pointer loads and an integer op per sample —
// and a disabled run (nil *sysMetrics) pays one nil check.
type sysMetrics struct {
	reg *trace.Registry

	polls, emptyPolls *trace.Counter
	retransmits       *trace.Counter
	acksSent          *trace.Counter
	nacksSent         *trace.Counter
	probes            *trace.Counter
	corruptDropped    *trace.Counter
	backoffs          *trace.Counter // probe rounds beyond the first
	peerDeaths        *trace.Counter // fail-stop declarations

	recvFIFO  *trace.Histogram // receive-FIFO occupancy seen at each poll
	pollBatch *trace.Histogram // packets drained per poll
	inflight  *trace.Histogram // window occupancy at each short injection
	sendFIFO  *trace.Histogram // send-FIFO occupancy at each injection
	rtoNS     *trace.Histogram // RTO estimate (ns) after each RTT sample
	detectNS  *trace.Histogram // kill-to-declaration latency (ns)
}

func newSysMetrics(reg *trace.Registry) *sysMetrics {
	return &sysMetrics{
		reg:            reg,
		polls:          reg.Counter("am.polls"),
		emptyPolls:     reg.Counter("am.polls_empty"),
		retransmits:    reg.Counter("am.retransmits"),
		acksSent:       reg.Counter("am.acks_sent"),
		nacksSent:      reg.Counter("am.nacks_sent"),
		probes:         reg.Counter("am.probes_sent"),
		corruptDropped: reg.Counter("am.corrupt_dropped"),
		backoffs:       reg.Counter("am.backoffs"),
		peerDeaths:     reg.Counter("am.peer_deaths"),
		recvFIFO:       reg.Histogram("am.recv_fifo_occupancy"),
		pollBatch:      reg.Histogram("am.poll_batch"),
		inflight:       reg.Histogram("am.window_inflight"),
		sendFIFO:       reg.Histogram("am.send_fifo_occupancy"),
		rtoNS:          reg.Histogram("am.rto_ns"),
		detectNS:       reg.Histogram("am.death_detect_ns"),
	}
}

// EnableMetrics publishes this system's protocol metrics into reg. All
// endpoints share the handles (the registry aggregates cluster-wide, which
// is what the bench reports want).
func (s *System) EnableMetrics(reg *trace.Registry) {
	s.met = newSysMetrics(reg)
}

// Metrics returns the registry this system publishes into, nil when metrics
// are off. Layers built on the system publish their own counters there.
func (s *System) Metrics() *trace.Registry {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}
