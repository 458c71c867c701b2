// Command kv-bench drives the sharded KV service (internal/kv) — the
// repo's served-workload experiment: open-loop traffic from millions of
// virtual clients against SP Active Message servers, reported as a
// tail-latency-vs-offered-load table in the style of the latency figures.
//
// Usage:
//
//	kv-bench                     # tail-latency sweep across the rate ladder
//	kv-bench -rate 200e3         # single offered-load point
//	kv-bench -cachetable         # hit rate + cached-vs-uncached GET tail vs skew
//	kv-bench -cache=false        # disable the client read cache
//	kv-bench -writetable         # PUT coalescing/combining vs one PUT per transaction across -mixes
//	kv-bench -batchops 1         # no PUT coalescing
//	kv-bench -chaos kill         # fail-stop a server mid-run, report failover
//
// The run is deterministic: the same flags produce byte-identical output
// at any -par setting.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"spam/internal/bench"
	"spam/internal/hw"
	"spam/internal/kv"
	"spam/internal/kv/load"
	"spam/internal/sim"
)

func main() {
	servers := flag.Int("servers", 4, "server nodes")
	nodes := flag.Int("nodes", 4, "client nodes driving the load")
	clients := flag.Int("clients", 1_000_000, "end-client ids spread over the client nodes, at least -nodes (each request draws one; nothing in the model reads it)")
	rate := flag.Float64("rate", 0, "offered load in requests/s (0 = sweep the default ladder)")
	zipf := flag.Float64("zipf", 1.3, "key-popularity skew (<= 1 uniform)")
	keys := flag.Int("keys", 1<<16, "keyspace size")
	reqs := flag.Int("reqs", 50_000, "requests per sweep point")
	seed := flag.Uint64("seed", 1, "run seed")
	mixName := flag.String("mix", "default", "operation mix: default (80/15/3/2), readmostly (95/5), writeheavy (50/45), updateskew (10/85), nobatch")
	cache := flag.Bool("cache", true, "client read cache (versioned leases + invalidation push)")
	cacheSize := flag.Int("cachesize", 4096, "cache entries per client node")
	leaseUS := flag.Float64("lease", 100_000, "read-lease duration in us of simulated time")
	cacheTable := flag.Bool("cachetable", false, "print the hit-rate / cached-vs-uncached table across -skews (read-mostly mix unless -mix is given)")
	skews := flag.String("skews", "1.00,1.10,1.30,1.50", "comma-separated Zipf skews for -cachetable")
	writeTable := flag.Bool("writetable", false, "print the PUT coalescing/combining vs one-PUT-per-transaction table across -mixes")
	mixesSpec := flag.String("mixes", "writeheavy,updateskew", "comma-separated operation mixes for -writetable")
	batchOps := flag.Int("batchops", 0, "max PUTs coalesced into one write transaction (0 = default 16, cap 32, 1 = none)")
	batchWindowUS := flag.Float64("batchwindow", 0, "batch flush window in us of simulated time (0 = default 20)")
	chaos := flag.String("chaos", "", "chaos mode: 'kill' fail-stops a server mid-run")
	killat := flag.Float64("killat", 5000, "kill time in us of simulated time (-chaos kill)")
	cf := bench.StdFlags()
	flag.Parse()
	s, err := cf.Setup()
	check(err)

	check(bench.OneMode("cachetable", "writetable", "chaos"))
	mix, err := load.ParseMix(*mixName)
	check(err)
	mixSet := false
	flag.Visit(func(f *flag.Flag) {
		mixSet = mixSet || f.Name == "mix"
		// flag.Float64 accepts "inf" and "nan", which no float flag here means.
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			check(fmt.Errorf("-%s must be finite (got %v)", f.Name, v))
		}
	})

	if *keys < 1 {
		check(fmt.Errorf("-keys must be at least 1 (got %d)", *keys))
	}
	if *chaos != "" && *chaos != "kill" {
		check(fmt.Errorf("-chaos must be kill (got %q)", *chaos))
	}
	if *rate < 0 {
		check(fmt.Errorf("-rate must be positive, or 0 to sweep the default ladder (got %v)", *rate))
	}

	base := kv.Config{
		Servers:        *servers,
		ClientNodes:    *nodes,
		VirtualClients: *clients,
		Keys:           *keys,
		Zipf:           *zipf,
		Mix:            mix,
		Requests:       *reqs,
		Seed:           *seed,
		CacheOff:       !*cache,
		CacheSize:      *cacheSize,
		Lease:          hw.US(*leaseUS),
		BatchOps:       *batchOps,
		BatchWindow:    hw.US(*batchWindowUS),
	}
	rates := bench.KVDefaultRates()
	if *rate > 0 {
		rates = []float64{*rate}
	}
	base.Rate = rates[0] // a ladder sweep sets each point's own; the table modes pick theirs below
	// The sweeps treat a config error as a bug and panic, so each mode asks
	// kv about the config it is about to run first.
	valid := func(cfg kv.Config) kv.Config {
		check(cfg.Validate())
		return cfg
	}

	switch {
	case *cacheTable:
		sk, err := load.ParseSkews(*skews)
		if err != nil {
			check(fmt.Errorf("-skews: %w", err))
		}
		if !mixSet {
			base.Mix = load.ReadMostlyMix()
		}
		base.Rate = 300e3
		if *rate > 0 {
			base.Rate = *rate
		}
		bench.KVCacheTable(os.Stdout, s, valid(base), sk)
	case *writeTable:
		names, mixes, err := load.ParseMixes(*mixesSpec)
		check(err)
		base.Rate = 200e3
		if *rate > 0 {
			base.Rate = *rate
		}
		bench.KVWriteTable(os.Stdout, s, valid(base), names, mixes)
	case *chaos == "kill":
		if *servers < 2 {
			check(fmt.Errorf("-chaos kill fail-stops server 1: -servers must be at least 2 (got %d)", *servers))
		}
		if !(*killat > 0) {
			check(fmt.Errorf("-killat must be positive (got %v)", *killat))
		}
		base.Rate = rates[len(rates)-1] / 2 // hold the service below saturation while failing over
		if *rate > 0 {
			base.Rate = *rate
		}
		bench.KVKillTable(os.Stdout, s, valid(base), 1, []sim.Time{hw.US(*killat)})
	default:
		bench.KVTailTable(os.Stdout, s, valid(base), rates)
	}

	check(cf.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kv-bench:", err)
		os.Exit(1)
	}
}
