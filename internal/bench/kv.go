package bench

import (
	"fmt"
	"io"

	"spam/internal/faults"
	"spam/internal/kv"
	"spam/internal/kv/load"
	"spam/internal/sim"
	"spam/internal/trace"
)

// qUS reads one latency quantile out of a histogram in microseconds — the
// single conversion point from the simulator's nanosecond Time to the
// microsecond figures every kv table prints.
func qUS(h *trace.Histogram, q float64) float64 {
	return float64(h.Quantile(q)) / 1e3
}

// KVDefaultRates is the offered-load ladder swept by KVTailTable: it starts
// well below the service's saturation throughput and ends past it, so the
// table shows both the flat region (latency == protocol floor) and the
// open-loop queueing blow-up at the knee.
func KVDefaultRates() []float64 {
	return []float64{50e3, 100e3, 200e3, 400e3, 600e3}
}

// kvRuns runs n variations of base, one observed simulation each. Points
// are independent, so they fan across s's sweep workers (-par); results come
// back in index order, keeping the output byte-identical to a serial sweep.
// vary edits point i's config. The commands validate base before they
// sweep, so a config error here is a bug and panics.
func kvRuns(s Setup, base kv.Config, n int, vary func(i int, cfg *kv.Config)) []*kv.Result {
	return Sweep(s, n, func(s Setup, i int) *kv.Result {
		cfg := base
		vary(i, &cfg)
		svc, err := kv.New(cfg)
		var res *kv.Result
		if err == nil {
			s.observe(svc.System().Cluster, svc.System())
			res, err = svc.Run()
		}
		if err != nil {
			panic(fmt.Sprintf("bench: kv sweep point %d of %d: %v", i, n, err))
		}
		return res
	})
}

// KVTailTable sweeps offered load against a fixed cluster and prints, per
// rate, the achieved throughput and the open-loop latency tail. Latency is
// measured from each request's scheduled arrival — not from its dispatch —
// so queueing delay behind a saturated client node counts against the tail
// (no coordinated omission).
func KVTailTable(w io.Writer, s Setup, base kv.Config, rates []float64) {
	runs := kvRuns(s, base, len(rates), func(i int, cfg *kv.Config) { cfg.Rate = rates[i] })
	cfg := runs[0].Config
	fmt.Fprintf(w, "# kv-bench: open-loop tail latency vs offered load (%d servers, %d client nodes, %d virtual clients, zipf %.2f, %d keys, %d reqs/point, %s)\n",
		cfg.Servers, cfg.ClientNodes, cfg.VirtualClients, cfg.Zipf, cfg.Keys, cfg.Requests, cacheDesc(cfg))
	fmt.Fprintf(w, "%-12s %12s %9s %9s %9s %10s %9s %9s %6s\n",
		"offered_rps", "achieved_rps", "p50_us", "p99_us", "p999_us", "retries", "conflict", "unavail", "hit%")
	for _, r := range runs {
		fmt.Fprintf(w, "%-12.0f %12.0f %9.1f %9.1f %9.1f %10d %9d %9d %6.1f\n",
			r.Config.Rate, r.Throughput(),
			qUS(&r.Lat, 0.5), qUS(&r.Lat, 0.99), qUS(&r.Lat, 0.999),
			r.LockRetries, r.Conflicts, r.Unavail,
			100*r.HitRate())
	}
}

// cacheDesc summarizes the cache configuration of a run for table headers.
func cacheDesc(cfg kv.Config) string {
	if cfg.CacheOff {
		return "cache off"
	}
	return fmt.Sprintf("cache %d/node lease %v", cfg.CacheSize, cfg.Lease)
}

// KVCacheTable sweeps key-popularity skew at a fixed offered rate and
// prints, per skew, the cache economics (hit/stale rates, coalesced
// fetches, invalidation pushes) and the cached-vs-uncached GET tail. The
// cached and uncached runs see the identical arrival schedule — the load
// generator draws are independent of service behavior — so the p99 ratio
// isolates exactly what the cache buys. StaleServed is asserted zero here
// too: a golden regeneration doubles as a lease-safety check.
func KVCacheTable(w io.Writer, s Setup, base kv.Config, skews []float64) {
	runs := kvRuns(s, base, 2*len(skews), func(i int, cfg *kv.Config) {
		cfg.Zipf = skews[i/2]
		cfg.CacheOff = i%2 == 1
	})
	for i, res := range runs {
		if res.StaleServed != 0 {
			panic(fmt.Sprintf("bench: kv cache point zipf %.2f: %d lease-expired cache serves", skews[i/2], res.StaleServed))
		}
	}
	cfg := runs[0].Config
	fmt.Fprintf(w, "# kv-bench: client-cache hit rate and GET tail vs key skew (%d servers, %d client nodes, %.0f rps offered, read-mostly mix, %d keys, %d reqs/point, %s)\n",
		cfg.Servers, cfg.ClientNodes, cfg.Rate, cfg.Keys, cfg.Requests, cacheDesc(cfg))
	fmt.Fprintf(w, "%-6s %6s %7s %9s %8s %10s %10s | %10s %10s %9s\n",
		"zipf", "hit%", "stale%", "coalesce", "invals", "get_p50us", "get_p99us", "off_p50us", "off_p99us", "p99_ratio")
	for i, s := range skews {
		on, off := runs[2*i], runs[2*i+1]
		ratio := 0.0
		if p := qUS(&on.LatGet, 0.99); p > 0 {
			ratio = qUS(&off.LatGet, 0.99) / p
		}
		stalePct := 0.0
		if on.Gets > 0 {
			stalePct = 100 * float64(on.CacheStale) / float64(on.Gets)
		}
		fmt.Fprintf(w, "%-6.2f %6.1f %7.1f %9d %8d %10.1f %10.1f | %10.1f %10.1f %8.1fx\n",
			s, 100*on.HitRate(), stalePct, on.Coalesced, on.InvalsRecv,
			qUS(&on.LatGet, 0.5), qUS(&on.LatGet, 0.99),
			qUS(&off.LatGet, 0.5), qUS(&off.LatGet, 0.99),
			ratio)
	}
}

// KVWriteTable sweeps operation mixes at a fixed offered rate and prints,
// per mix, the write-contention economics — the fraction of PUTs that rode
// a multi-op batch, the mean flushed batch size, the same-key writes the
// servers combined (last-writer-wins), latch denials, and backoff sleeps —
// beside the write tail with coalescing on versus one PUT per transaction
// (BatchOps 1) on the same code path. Both arms see the identical arrival
// schedule (the load generator draws are independent of service behavior),
// so the p99 ratio isolates what coalescing buys.
func KVWriteTable(w io.Writer, s Setup, base kv.Config, names []string, mixes []load.Mix) {
	runs := kvRuns(s, base, 2*len(mixes), func(i int, cfg *kv.Config) {
		cfg.Mix = mixes[i/2]
		if i%2 == 1 {
			cfg.BatchOps = 1
		}
	})
	cfg := runs[0].Config
	fmt.Fprintf(w, "# kv-bench: write batching + combining vs the per-op path across mixes (%d servers, %d client nodes, %.0f rps offered, zipf %.2f, %d keys, %d reqs/point, %s)\n",
		cfg.Servers, cfg.ClientNodes, cfg.Rate, cfg.Zipf, cfg.Keys, cfg.Requests, cacheDesc(cfg))
	fmt.Fprintf(w, "%-11s %8s %8s %6s %9s %7s %9s %9s %9s | %9s %9s %9s\n",
		"mix", "puts", "batched%", "avg_b", "combined", "denies", "backoffs", "put_p50us", "put_p99us", "off_p50us", "off_p99us", "p99_ratio")
	for i, name := range names {
		on, off := runs[2*i], runs[2*i+1]
		batchedPct := 0.0
		if on.Puts > 0 {
			batchedPct = 100 * float64(on.BatchedPuts) / float64(on.Puts)
		}
		ratio := 0.0
		if p := qUS(&on.LatWrite, 0.99); p > 0 {
			ratio = qUS(&off.LatWrite, 0.99) / p
		}
		fmt.Fprintf(w, "%-11s %8d %8.1f %6.1f %9d %7d %9d %9.1f %9.1f | %9.1f %9.1f %8.1fx\n",
			name, on.Puts, batchedPct, on.BatchSize.Mean(),
			on.CombinedPuts, on.LockRetries, on.Backoffs,
			qUS(&on.LatWrite, 0.5), qUS(&on.LatWrite, 0.99),
			qUS(&off.LatWrite, 0.5), qUS(&off.LatWrite, 0.99),
			ratio)
	}
}

// KVKillTable fail-stops one server mid-run at a ladder of kill times and
// prints the failure report: detection latency (kill to the last client's
// peer-death declaration), the unavailability window (kill to the last
// failed-over request's completion), and the outcome split — every issued
// request must still end in a reply or a typed error.
func KVKillTable(w io.Writer, s Setup, base kv.Config, killServer int, kills []sim.Time) {
	pts := kvRuns(s, base, len(kills), func(i int, cfg *kv.Config) {
		cfg.Plan = &faults.Plan{Name: fmt.Sprintf("kill@%v", kills[i]),
			Kills: []faults.NodeKill{{Node: killServer, At: kills[i]}}}
	})
	fmt.Fprintf(w, "# kv-bench: fail-stop server %d under load (%d servers, %d client nodes, %.0f rps offered)\n",
		killServer, base.Servers, base.ClientNodes, base.Rate)
	fmt.Fprintf(w, "%-10s %10s %11s %9s %9s %9s %9s %6s %6s\n",
		"kill_at", "detect_ms", "unavail_ms", "failover", "ok", "conflict", "unavail", "hit%", "stale")
	for i, r := range pts {
		fmt.Fprintf(w, "%-10v %10.2f %11.2f %9d %9d %9d %9d %6.1f %6d\n",
			kills[i],
			float64(r.Detect)/1e6, float64(r.UnavailWindow)/1e6,
			r.Failovers, r.Completed, r.Conflicts, r.Unavail,
			100*r.HitRate(), r.StaleServed)
	}
}
