package main

import (
	"fmt"
	"runtime"
	"time"

	"spam/internal/am"
	"spam/internal/hw"
)

// rep is one repetition of a workload: the identical deterministic run,
// measured once. A workload's run function fills it through setupCall,
// timed and verify, so every workload is measured the same way.
type rep struct {
	seed    uint64
	nodePar int     // hw shard count: 1 serial, 2 for the NodePar re-run
	collect bool    // read the layer counters (traced reps and the NodePar re-run)
	tr      *tracer // spans are recorded when non-nil
	root    int     // the enclosing "workload" span

	setup, run          time.Duration
	mallocs, allocBytes uint64

	simNS  int64 // simulated time the timed regions covered
	failed int   // ops that ended in a failure
	err    error // first output that failed verification

	// Collecting reps only: raw layer counters summed over the rep's timed
	// regions, and the per-layer metrics derived from them.
	tally map[string]float64
	vals  map[string]float64
	tail  *tailInfo
}

// tailInfo is the highest latency percentile a sample supports, printed in
// the full report beside the fixed p50/p99 metrics with its sample count.
type tailInfo struct {
	Percentile string  `json:"percentile"`
	SimUS      float64 `json:"sim_us"`
	Samples    int64   `json:"samples"`
}

// setTail records the tail of n latency samples, given their quantile
// function in simulated microseconds.
func (r *rep) setTail(n int64, quantile func(q float64) float64) {
	if q, label, ok := tailQuantile(n); ok && r.collect {
		r.tail = &tailInfo{label, quantile(q), n}
	}
}

// hwConfig is the n-node thin-node cluster every workload that owns its
// cluster builds on.
func (r *rep) hwConfig(n int) hw.Config {
	cfg := hw.DefaultConfig(n)
	cfg.Seed = r.seed
	cfg.NodePar = r.nodePar
	return cfg
}

// setupCall runs fn as set-up: everything before a timed region (cluster
// and service construction, buffers) is billed to setup_s. It starts from a
// collected heap, so what the previous rep left behind is not billed to it.
func (r *rep) setupCall(parent int, name string, fn func()) {
	runtime.GC()
	id := r.tr.begin(parent, "setup/"+name)
	t := time.Now()
	fn()
	r.setup += time.Since(t)
	r.tr.end(id, nil)
}

// timed runs fn as (part of) the timed region and returns its wall time.
// The collector runs first so garbage owed to set-up is not billed to the
// run, and nothing is printed or read inside the region. On collecting reps
// counters is called once timing has stopped; the counts it returns are
// attached to the span and summed into the rep's tally.
func (r *rep) timed(parent int, name string, fn func(), counters func() map[string]float64) time.Duration {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.tr.begin(parent, "run/"+name)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	r.run += d
	r.mallocs += after.Mallocs - before.Mallocs
	r.allocBytes += after.TotalAlloc - before.TotalAlloc
	var m map[string]float64
	if r.collect && counters != nil {
		m = counters()
		for k, v := range m {
			if k == "hw.switch_util_max" {
				if v > r.tally[k] {
					r.tally[k] = v
				}
				continue
			}
			r.tally[k] += v
		}
	}
	r.tr.end(id, m)
	return d
}

// verify checks outputs after a timed region; the first failure is kept
// and makes the whole run incorrect.
func (r *rep) verify(parent int, fn func() error) {
	id := r.tr.begin(parent, "verify")
	if err := fn(); err != nil && r.err == nil {
		r.err = err
	}
	r.tr.end(id, nil)
}

// set records a per-layer metric; only collecting reps carry them.
func (r *rep) set(name string, v float64) {
	if r.collect {
		r.vals[name] = v
	}
}

// amCounts are the protocol counters the am layer exports, as raw counts.
func amCounts(st am.Stats) map[string]float64 {
	return map[string]float64{
		"am.polls":        float64(st.Polls),
		"am.empty_polls":  float64(st.EmptyPolls),
		"am.packets_sent": float64(st.PacketsSent),
		"am.acks_sent":    float64(st.AcksSent),
		"am.retransmits":  float64(st.Retransmits),
		"am.nacks":        float64(st.NacksSent),
		"am.duplicates":   float64(st.Duplicates),
	}
}

// clusterCounts adds what a driver that owns its cluster can also read:
// events executed, packets through the switch, port utilisation, FIFO
// overflow. Events are the serial engine's; a sharded cluster reports
// shard 0 only, which is why per-layer metrics come from serial reps.
func clusterCounts(c *hw.Cluster, st am.Stats) map[string]float64 {
	m := amCounts(st)
	m["sim.events"] = float64(c.Eng.EventsRun)
	m["hw.switch_sent"] = float64(c.Switch.Sent)
	m["hw.overflow_drops"] = float64(c.Losses().Overflow)
	util := 0.0
	for _, n := range c.Nodes {
		in, out := c.Switch.Util(n.ID)
		util = max(util, in, out)
	}
	m["hw.switch_util_max"] = util
	return m
}

// share is num/den, 0 when the base is 0 (an idle layer).
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// deriveCounts turns the rep's tally into the per-op ratios and totals of
// the sim, hw, am and mpi layers. kv keeps its cluster private, so there sim.events and the
// switch counters stay 0.
func (r *rep) deriveCounts(ops int) {
	if !r.collect {
		return
	}
	t, n := r.tally, float64(ops)
	r.set("sim.events_per_op", t["sim.events"]/n)
	r.set("sim.events_per_host_s", share(t["sim.events"], r.run.Seconds()))
	r.set("hw.switch_sent_per_op", t["hw.switch_sent"]/n)
	r.set("hw.switch_util_max", t["hw.switch_util_max"])
	r.set("hw.overflow_drops", t["hw.overflow_drops"])
	r.set("am.polls_per_op", t["am.polls"]/n)
	r.set("am.empty_poll_share", share(t["am.empty_polls"], t["am.polls"]))
	r.set("am.packets_per_op", t["am.packets_sent"]/n)
	r.set("am.acks_per_op", t["am.acks_sent"]/n)
	r.set("am.retransmits", t["am.retransmits"])
	r.set("am.nacks", t["am.nacks"])
	r.set("am.duplicates", t["am.duplicates"])
	r.set("mpi.sends_buffered", t["mpi.sends_buffered"])
	r.set("mpi.sends_rdv", t["mpi.sends_rdv"])
	r.set("mpi.sends_hybrid", t["mpi.sends_hybrid"])
	r.set("host_allocs_per_op", float64(r.mallocs)/n)
	r.set("host_alloc_mb", float64(r.allocBytes)/1e6)
	r.set("sim_fail_share", float64(r.failed)/n)
}

// checkDefaults refuses to measure while a process-global observer or
// shard setting is on, so neither can leak into an end-to-end number.
func checkDefaults() error {
	if hw.DefaultNodePar != 1 || hw.DefaultTracer != nil || am.DefaultMetrics != nil {
		return fmt.Errorf("benchmark: hw.DefaultNodePar=%d, hw.DefaultTracer set=%v, am.DefaultMetrics set=%v: all must be at their defaults",
			hw.DefaultNodePar, hw.DefaultTracer != nil, am.DefaultMetrics != nil)
	}
	return nil
}
