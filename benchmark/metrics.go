package main

import "fmt"

// metricDef fixes one metric's name and meaning. BENCHMARK.json carries the
// same list (TestBenchmarkJSONMatchesTables keeps the two equal); the README
// says which end-to-end metric each per-layer metric should move.
//
// Clock is "sim" for simulated time and counts — deterministic, two runs at
// one seed agree exactly — or "host" for wall time and allocations of the
// simulator itself, which are noisy and reported as medians over reps.
type metricDef struct {
	Name   string
	Clock  string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the baseline it may worsen by
}

const (
	simClock  = "sim"
	hostClock = "host"
	lower     = "lower"
	higher    = "higher"
)

// endToEnd are the metrics every workload reports from its untraced reps.
var endToEnd = []metricDef{
	{"setup_s", hostClock, "s", lower, 0.25},
	{"host_us_per_op", hostClock, "us/op", lower, 0.25},
	{"sim_ops_per_s", simClock, "ops/sim_s", higher, 0.20},
}

// kvRungs is the number of offered-load rungs on each kv ladder; per-rung
// metrics are named kv.r1 … kv.r4 from the lowest rate up.
const kvRungs = 4

// splitcProgs are the Table 5 programs in run order.
var splitcProgs = []string{"mm_lg", "mm_sm", "smpsort_sm", "smpsort_lg", "rdxsort_sm", "rdxsort_lg"}

// perLayer are the metrics of single layers, reported by the traced run.
// A workload reports 0 for a layer it leaves idle.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// What the untraced run cannot bound (zero on some workloads, or
		// dependent on the seed beyond any useful bound).
		{"host_allocs_per_op", hostClock, "allocs/op", lower, 0},
		{"host_alloc_mb", hostClock, "MB", lower, 0},
		{"sim_lat_p50_us", simClock, "sim_us", lower, 0},
		{"sim_lat_p99_us", simClock, "sim_us", lower, 0},
		{"sim_get_p99_us", simClock, "sim_us", lower, 0},
		{"sim_write_p99_us", simClock, "sim_us", lower, 0},
		{"sim_sat_rps", simClock, "req/sim_s", higher, 0},
		{"sim_fail_share", simClock, "ratio", lower, 0},
		{"paper_err_pct", simClock, "%", lower, 0},

		{"sim.events_per_op", simClock, "events/op", lower, 0},
		{"sim.events_per_host_s", hostClock, "events/s", higher, 0},
		{"sim.callback_ns", hostClock, "ns", lower, 0},
		{"sim.advance_ns", hostClock, "ns", lower, 0},
		{"sim.handoff_ns", hostClock, "ns", lower, 0},
		{"sim.nodepar2_wall_ratio", hostClock, "ratio", lower, 0},
		{"sim.nodepar2_identical", simClock, "count", higher, 0},

		{"hw.raw_rtt_us", simClock, "sim_us", lower, 0},
		{"hw.raw_rtt_host_ns", hostClock, "ns", lower, 0},
		{"hw.switch_sent_per_op", simClock, "packets/op", lower, 0},
		{"hw.switch_util_max", simClock, "ratio", higher, 0},
		{"hw.overflow_drops", simClock, "count", lower, 0},
		{"hw.echo_tb2_us", simClock, "sim_us", lower, 0},
		{"hw.echo_switch_us", simClock, "sim_us", lower, 0},

		{"am.polls_per_op", simClock, "polls/op", lower, 0},
		{"am.empty_poll_share", simClock, "ratio", lower, 0},
		{"am.packets_per_op", simClock, "packets/op", lower, 0},
		{"am.acks_per_op", simClock, "acks/op", lower, 0},
		{"am.retransmits", simClock, "count", lower, 0},
		{"am.nacks", simClock, "count", lower, 0},
		{"am.duplicates", simClock, "count", lower, 0},
		{"am.poll_empty_host_ns", hostClock, "ns", lower, 0},
		{"am.echo_rtt_us", simClock, "sim_us", lower, 0},
		{"am.echo_host_ns", hostClock, "ns", lower, 0},
		{"am.self_rtt_us", simClock, "sim_us", lower, 0},
		{"am.self_host_ns", hostClock, "ns", lower, 0},
		{"am.echo_sw_us", simClock, "sim_us", lower, 0},
		{"am.echo_fifo_wait_us", simClock, "sim_us", lower, 0},
		{"am.bulk_small_mb_per_s", simClock, "MB/sim_s", higher, 0},
		{"am.bulk_small_host_us_per_store", hostClock, "us/store", lower, 0},

		{"mpi.pingpong_us", simClock, "sim_us", lower, 0},
		{"mpi.pingpong_host_ns", hostClock, "ns", lower, 0},
		{"mpi.self_oneway_us", simClock, "sim_us", lower, 0},
		{"mpi.ft_sim_s", simClock, "sim_s", lower, 0},
		{"mpi.mg_sim_s", simClock, "sim_s", lower, 0},
		{"mpi.ft_host_s", hostClock, "s", lower, 0},
		{"mpi.mg_host_s", hostClock, "s", lower, 0},
		{"mpi.sends_buffered", simClock, "count", lower, 0},
		{"mpi.sends_rdv", simClock, "count", lower, 0},
		{"mpi.sends_hybrid", simClock, "count", lower, 0},
	}
	for _, p := range splitcProgs {
		m = append(m,
			metricDef{"splitc." + p + ".sim_s", simClock, "sim_s", lower, 0},
			metricDef{"splitc." + p + ".host_s", hostClock, "s", lower, 0},
			metricDef{"splitc." + p + ".comm_share", simClock, "ratio", lower, 0},
			metricDef{"splitc." + p + ".empty_poll_share", simClock, "ratio", lower, 0})
	}
	m = append(m,
		metricDef{"splitc.read_us", simClock, "sim_us", lower, 0},
		metricDef{"splitc.self_us", simClock, "sim_us", lower, 0})
	for i := 1; i <= kvRungs; i++ {
		r := fmt.Sprintf("kv.r%d", i)
		m = append(m,
			metricDef{r + ".p99_us", simClock, "sim_us", lower, 0},
			metricDef{r + ".get_p99_us", simClock, "sim_us", lower, 0},
			metricDef{r + ".write_p99_us", simClock, "sim_us", lower, 0},
			metricDef{r + ".goodput_rps", simClock, "req/sim_s", higher, 0},
			metricDef{r + ".host_us_per_req", hostClock, "us/req", lower, 0},
			metricDef{r + ".host_s_per_sim_s", hostClock, "s/s", lower, 0})
	}
	return append(m,
		metricDef{"kv.hit_rate", simClock, "ratio", higher, 0},
		metricDef{"kv.coalesced_share", simClock, "ratio", higher, 0},
		metricDef{"kv.lock_retries_per_write", simClock, "retries/op", lower, 0},
		metricDef{"kv.deferrals_per_op", simClock, "deferrals/op", lower, 0},
		metricDef{"kv.backoffs_per_write", simClock, "backoffs/op", lower, 0},
		metricDef{"kv.batched_put_share", simClock, "ratio", higher, 0},
		metricDef{"kv.combined_put_share", simClock, "ratio", higher, 0},
		metricDef{"kv.invals_per_write", simClock, "invals/op", lower, 0},
		metricDef{"kv.server_ops_per_op", simClock, "ops/op", lower, 0},
		metricDef{"kv.unloaded_get_mean_us", simClock, "sim_us", lower, 0},
		metricDef{"kv.self_get_us", simClock, "sim_us", lower, 0},
		metricDef{"load.gen_host_ns_per_req", hostClock, "ns", lower, 0},
		metricDef{"trace.overhead_ratio", hostClock, "ratio", lower, 0})
}
