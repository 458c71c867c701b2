package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"spam/internal/am"
	"spam/internal/bench"
	"spam/internal/hw"
	"spam/internal/kv"
	"spam/internal/kv/load"
	"spam/internal/mpi"
	"spam/internal/nas"
	"spam/internal/sim"
	"spam/internal/splitc"
	"spam/internal/splitc/apps"
)

// workload is one set of inputs the benchmark runs. ops is the fixed number
// of operations one repetition performs: it is part of the definition and
// never changes with the run length, which only sets how many identical
// repetitions the medians are taken over.
type workload struct {
	name string
	ops  int
	run  func(r *rep)
}

// sizes are the op counts and problem sizes of the six workloads. Sized so
// one repetition takes 1–2 s of host time on a 2-CPU host: an 18 s run then
// holds enough repetitions for a steady median.
type sizes struct {
	echoTrips  int
	bulkStores int
	bulkBytes  int
	splitc     bench.Table5Config
	nasProcs   int
	ft         nas.FTConfig
	mg         nas.MGConfig
	kvRungSec  float64 // simulated seconds each kv rung offers load for
	kvMixed    [kvRungs]float64
	kvWrite    [kvRungs]float64
	ladder     int  // iterations per rung of the layer ladder and per probe
	pinned     bool // simulated results are compared with the pinned constants
}

// kvRefRung indexes the rung whose latency percentiles are the workload's
// headline latency: the second, well below saturation on both mixes.
const kvRefRung = 1

// kvMaxAttempts is the lock-round budget the kv workloads give the service,
// in place of its default of 64. At the top rungs about one seed in fifteen
// has a hot-key write that spends 64 rounds and would end as a Conflict
// give-up; the benchmark's contract wants workloads on which no operation
// fails at any seed, so here such a write keeps retrying and shows as tail
// latency instead. A budget that is never reached changes nothing else:
// seeds that had no give-up simulate exactly as with the default.
const kvMaxAttempts = 1 << 15

// fullSizes is the benchmark proper. The kv ladders stop where lock
// contention starts to dominate, so the top rung shows the tail rising.
func fullSizes() sizes {
	return sizes{
		echoTrips:  40000,
		bulkStores: 40,
		bulkBytes:  1 << 20,
		splitc:     bench.QuickTable5(),
		nasProcs:   16,
		ft:         nas.FTConfig{N: 64, Iters: 2},
		mg:         nas.MGConfig{N: 128, Iters: 1, Levels: 3},
		kvRungSec:  0.1,
		kvMixed:    [kvRungs]float64{50e3, 100e3, 125e3, 150e3},
		kvWrite:    [kvRungs]float64{25e3, 50e3, 62.5e3, 75e3},
		ladder:     4000,
		pinned:     true,
	}
}

// smokeSizes is at most 1/50 of the op counts, for the tests.
func smokeSizes() sizes {
	return sizes{
		echoTrips:  400,
		bulkStores: 8,
		bulkBytes:  4 << 10,
		splitc:     bench.Table5Config{NProcs: 8, MMLgN: 2, MMLgB: 8, MMSmN: 4, MMSmB: 4, Keys: 1 << 8},
		nasProcs:   4,
		ft:         nas.FTConfig{N: 16, Iters: 1},
		mg:         nas.MGConfig{N: 16, Iters: 1, Levels: 1},
		kvRungSec:  0.002,
		kvMixed:    fullSizes().kvMixed,
		kvWrite:    fullSizes().kvWrite,
		ladder:     32,
	}
}

// workloads builds the six workloads at the given sizes.
func workloads(sz sizes) []workload {
	return []workload{
		{"am_echo", sz.echoTrips, func(r *rep) { runEcho(r, sz) }},
		{"am_bulk", sz.bulkStores, func(r *rep) { runBulk(r, sz) }},
		{"splitc_spam", 1, func(r *rep) { runSplitC(r, sz) }},
		{"mpi_nas", 1, func(r *rep) { runNAS(r, sz) }},
		{"kv_mixed", kvRequests(sz, sz.kvMixed), func(r *rep) { runKV(r, sz, load.DefaultMix(), sz.kvMixed) }},
		{"kv_write", kvRequests(sz, sz.kvWrite), func(r *rep) { runKV(r, sz, load.WriteHeavyMix(), sz.kvWrite) }},
	}
}

// Paper targets from DESIGN.md §4, the only two this benchmark has a
// reference for at its sizes.
const (
	paperEchoRTTUS = 51.0
	paperBulkMBps  = 34.3
)

func errPct(got, want float64) float64 { return 100 * math.Abs(got-want) / want }

// quantileUS is the q-quantile of exact per-op latencies (sorted ascending).
func quantileUS(sorted []sim.Time, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))].Microseconds()
}

func sortTimes(v []sim.Time) []sim.Time {
	s := append([]sim.Time(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// echo is a closed loop with one request outstanding: node 0 sends a
// one-word request, node 1's handler replies with the same word, node 0
// polls until the reply handler has run.
type echo struct {
	lat     []sim.Time // simulated latency of each timed round trip
	replies int        // reply handler runs, warm-up included
	bad     int        // replies whose word was not the one sent
	elapsed sim.Time   // simulated time of the timed round trips
}

// spawnEcho starts the two programs on c; the words sent come from seed.
func spawnEcho(c *hw.Cluster, sys *am.System, trips int, seed uint64) *echo {
	e := &echo{lat: make([]sim.Time, 0, trips)}
	var got uint32
	var gotReply, done bool
	replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		got, gotReply = args[0], true
		e.replies++
	})
	pingH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Reply(p, tok, replyH, args...)
	})
	doneH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		done = true
	})
	rng := sim.NewRand(seed)
	c.Spawn(0, "pinger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[0]
		trip := func() {
			word := uint32(rng.Uint64())
			gotReply = false
			ep.Request(p, 1, pingH, word)
			for !gotReply {
				ep.Poll(p)
			}
			if got != word {
				e.bad++
			}
		}
		trip() // warm-up: the first packet sees a cold pipeline
		t0 := p.Now()
		for i := 0; i < trips; i++ {
			t := p.Now()
			trip()
			e.lat = append(e.lat, p.Now()-t)
		}
		e.elapsed = p.Now() - t0
		ep.Request(p, 1, doneH)
	})
	c.Spawn(1, "ponger", func(p *sim.Proc, n *hw.Node) {
		ep := sys.EPs[1]
		for !done {
			ep.Poll(p)
		}
	})
	return e
}

func runEcho(r *rep, sz sizes) {
	var c *hw.Cluster
	var sys *am.System
	var e *echo
	r.setupCall(r.root, "hw.NewCluster", func() { c = hw.NewCluster(r.hwConfig(2)) })
	r.setupCall(r.root, "am.New", func() {
		sys = am.New(c)
		e = spawnEcho(c, sys, sz.echoTrips, r.seed)
	})
	r.timed(r.root, "Cluster.Run", c.Run, func() map[string]float64 { return clusterCounts(c, sys.Totals()) })
	r.verify(r.root, func() error {
		r.failed = e.bad
		if e.replies != sz.echoTrips+1 || e.bad != 0 {
			return fmt.Errorf("am_echo: %d replies (%d wrong), want %d", e.replies, e.bad, sz.echoTrips+1)
		}
		if sz.pinned && e.elapsed != echoPinNS {
			return fmt.Errorf("am_echo: simulated %d ns, pinned %d ns", e.elapsed, echoPinNS)
		}
		return nil
	})
	r.simNS = int64(e.elapsed)
	if r.collect {
		s := sortTimes(e.lat)
		r.set("sim_lat_p50_us", quantileUS(s, 0.5))
		r.set("sim_lat_p99_us", quantileUS(s, 0.99))
		r.setTail(int64(len(s)), func(q float64) float64 { return quantileUS(s, q) })
		r.set("paper_err_pct", errPct(e.elapsed.Microseconds()/float64(sz.echoTrips), paperEchoRTTUS))
	}
}

// bulkSlots is how many distinct source buffers and destination blocks the
// stores rotate over, so a store landing in the wrong place is seen.
const bulkSlots = 4

func runBulk(r *rep, sz sizes) {
	var c *hw.Cluster
	var sys *am.System
	var src, dst []byte
	var landed, completed int // bytes the destination's handler saw; sender-side completions
	var elapsed sim.Time
	lat := make([]sim.Time, 0, sz.bulkStores)
	r.setupCall(r.root, "hw.NewCluster", func() { c = hw.NewCluster(r.hwConfig(2)) })
	r.setupCall(r.root, "am.New", func() {
		sys = am.New(c)
		src = make([]byte, bulkSlots*sz.bulkBytes)
		dst = make([]byte, len(src))
		rng := sim.NewRand(r.seed)
		for i := 0; i+8 <= len(src); i += 8 {
			v := rng.Uint64()
			for b := 0; b < 8; b++ {
				src[i+b] = byte(v >> (8 * b))
			}
		}
		seg := c.Nodes[1].Mem.Add(dst)
		landH := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
			landed += n
		})
		done := false
		doneH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) { done = true })
		c.Spawn(0, "mover", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[0]
			issued := make([]sim.Time, sz.bulkStores)
			t0 := p.Now()
			for i := 0; i < sz.bulkStores; i++ {
				off := (i % bulkSlots) * sz.bulkBytes
				issued[i] = p.Now()
				// Stores to one peer complete in issue order.
				ep.StoreAsync(p, 1, hw.Addr{Seg: seg, Off: off}, src[off:off+sz.bulkBytes], landH, uint32(i),
					func(q *sim.Proc, _ *am.Endpoint) {
						lat = append(lat, q.Now()-issued[completed])
						completed++
					})
			}
			for completed < sz.bulkStores {
				ep.Poll(p)
			}
			elapsed = p.Now() - t0
			ep.Request(p, 1, doneH)
		})
		c.Spawn(1, "sink", func(p *sim.Proc, n *hw.Node) {
			ep := sys.EPs[1]
			for !done {
				ep.Poll(p)
			}
		})
	})
	r.timed(r.root, "Cluster.Run", c.Run, func() map[string]float64 { return clusterCounts(c, sys.Totals()) })
	r.verify(r.root, func() error {
		r.failed = sz.bulkStores - completed
		if completed != sz.bulkStores || landed != sz.bulkStores*sz.bulkBytes || !bytes.Equal(src, dst) {
			return fmt.Errorf("am_bulk: %d/%d stores completed, %d bytes landed, destination equals source: %v",
				completed, sz.bulkStores, landed, bytes.Equal(src, dst))
		}
		if sz.pinned && elapsed != bulkPinNS {
			return fmt.Errorf("am_bulk: simulated %d ns, pinned %d ns", elapsed, bulkPinNS)
		}
		return nil
	})
	r.simNS = int64(elapsed)
	if r.collect {
		// 40 samples support a median and nothing beyond it.
		s := sortTimes(lat)
		r.set("sim_lat_p50_us", quantileUS(s, 0.5))
		r.setTail(int64(len(s)), func(q float64) float64 { return quantileUS(s, q) })
		if sz.pinned { // the 34.3 MB/s target is for transfers this long
			r.set("paper_err_pct", errPct(float64(sz.bulkStores*sz.bulkBytes)/1e6/elapsed.Seconds(), paperBulkMBps))
		}
	}
}

// pin is the simulated result of one deterministic program at fullSizes:
// its simulated nanoseconds and its checksum. A change that moves either
// changed the model's behaviour, which a benchmark run must not hide.
type pin struct {
	simNS    int64
	checksum uint64 // nas: math.Float64bits of the kernel's checksum
}

// Simulated nanoseconds of the timed round trips and of the 40 stores; no
// seed moves them.
const (
	echoPinNS = 2045002800 // 51.125 us per round trip
	bulkPinNS = 1226182260 // 34.2 MB/s
)

var splitcPins = map[string]pin{
	"mm_lg":      {26066460, 18446744073709551465},
	"mm_sm":      {7801096, 83},
	"smpsort_sm": {37124371, 17597441979294},
	"smpsort_lg": {2801371, 17597441979294},
	"rdxsort_sm": {142913004, 35215847343154},
	"rdxsort_lg": {29996904, 35215847343154},
}

var nasPins = map[string]pin{
	"ft": {188571486, 0x41bdce833e9207ed}, // checksum 5.0007327857043344e+08
	"mg": {260915024, 0x40474981193b46c4}, // checksum 46.5742522754131
}

// checkPin compares a program's result with its pinned constants.
func checkPin(pins map[string]pin, name string, seconds float64, checksum uint64) error {
	want, got := pins[name], pin{int64(math.Round(seconds * 1e9)), checksum}
	if got != want {
		return fmt.Errorf("%s: simulated %d ns checksum %d, pinned %d ns checksum %d", name, got.simNS, got.checksum, want.simNS, want.checksum)
	}
	return nil
}

// runSplitC runs the six Table 5 programs, each on a fresh 8-processor
// Split-C over SP AM platform; one op is the whole pass.
func runSplitC(r *rep, sz sizes) {
	cfg := sz.splitc
	n := cfg.NProcs
	progs := []struct {
		heap int
		run  func(pl splitc.Platform) apps.Result
	}{
		{apps.MatMulHeap(cfg.MMLgN, cfg.MMLgB, n), func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, cfg.MMLgN, cfg.MMLgB) }},
		{apps.MatMulHeap(cfg.MMSmN, cfg.MMSmB, n), func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, cfg.MMSmN, cfg.MMSmB) }},
		{apps.SampleSortHeap(cfg.Keys, n), func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, cfg.Keys, false) }},
		{apps.SampleSortHeap(cfg.Keys, n), func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, cfg.Keys, true) }},
		{apps.RadixSortHeap(cfg.Keys, n), func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, cfg.Keys, false) }},
		{apps.RadixSortHeap(cfg.Keys, n), func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, cfg.Keys, true) }},
	}
	var prevSum uint64
	var total float64
	for i, pr := range progs {
		name := splitcProgs[i]
		part := r.tr.begin(r.root, name)
		var pl *splitc.SPAMPlatform
		r.setupCall(part, "splitc.NewSPAM", func() {
			// NewSPAM takes no cluster config: the shard count can only
			// reach it through the process default, restored at once.
			hw.DefaultNodePar = r.nodePar
			defer func() { hw.DefaultNodePar = 1 }()
			pl = splitc.NewSPAM(n, pr.heap)
		})
		var res apps.Result
		var st am.Stats
		d := r.timed(part, "apps."+name, func() { res = pr.run(pl) }, func() map[string]float64 {
			st = pl.Sys.Totals()
			return clusterCounts(pl.Cluster, st)
		})
		r.verify(part, func() error {
			// The bulk variant of each sort must agree with the
			// small-message variant run just before it.
			if bulk := i == 3 || i == 5; bulk && res.Checksum != prevSum {
				return fmt.Errorf("splitc_spam: %s checksum %d differs from %s's %d", name, res.Checksum, splitcProgs[i-1], prevSum)
			}
			prevSum = res.Checksum
			if sz.pinned {
				return checkPin(splitcPins, name, res.TotalSec, res.Checksum)
			}
			return nil
		})
		r.tr.end(part, nil)
		total += res.TotalSec
		r.set("splitc."+name+".sim_s", res.TotalSec)
		r.set("splitc."+name+".host_s", d.Seconds())
		r.set("splitc."+name+".comm_share", share(res.CommSec, res.TotalSec))
		r.set("splitc."+name+".empty_poll_share", share(float64(st.EmptyPolls), float64(st.Polls)))
	}
	if r.err != nil {
		r.failed = 1
	}
	r.simNS = int64(math.Round(total * 1e9))
}

// runNAS runs NAS FT then MG over MPI-AM (optimized) on thin nodes, each
// kernel on a fresh cluster; one op is the FT+MG pass.
func runNAS(r *rep, sz sizes) {
	kernels := []struct {
		name string
		k    nas.Kernel
	}{{"ft", nas.FT(sz.ft)}, {"mg", nas.MG(sz.mg)}}
	var total float64
	for _, kn := range kernels {
		part := r.tr.begin(r.root, kn.name)
		var c *hw.Cluster
		var sys *mpi.System
		var pts []mpi.PT
		r.setupCall(part, "hw.NewCluster", func() { c = hw.NewCluster(r.hwConfig(sz.nasProcs)) })
		r.setupCall(part, "mpi.New", func() {
			sys = mpi.New(c, mpi.Optimized())
			for _, cm := range sys.Comms {
				pts = append(pts, cm)
			}
		})
		var res nas.Result
		d := r.timed(part, "nas.Run", func() { res = nas.Run(c, pts, kn.name, "MPI-AM", kn.k) }, func() map[string]float64 {
			m := clusterCounts(c, sys.AM.Totals())
			for _, cm := range sys.Comms {
				m["mpi.sends_buffered"] += float64(cm.SendsBuffered)
				m["mpi.sends_rdv"] += float64(cm.SendsRdv)
				m["mpi.sends_hybrid"] += float64(cm.SendsHybrid)
			}
			return m
		})
		r.verify(part, func() error {
			for rank, err := range res.Errs {
				if err != nil {
					return fmt.Errorf("mpi_nas: %s rank %d: %w", kn.name, rank, err)
				}
			}
			if math.IsNaN(res.Checksum) || math.IsInf(res.Checksum, 0) {
				return fmt.Errorf("mpi_nas: %s checksum %v", kn.name, res.Checksum)
			}
			if sz.pinned {
				return checkPin(nasPins, kn.name, res.Seconds, math.Float64bits(res.Checksum))
			}
			return nil
		})
		r.tr.end(part, nil)
		total += res.Seconds
		r.set("mpi."+kn.name+"_sim_s", res.Seconds)
		r.set("mpi."+kn.name+"_host_s", d.Seconds())
	}
	if r.err != nil {
		r.failed = 1
	}
	r.simNS = int64(math.Round(total * 1e9))
}

// kvRequests is the fixed request count of a ladder: every rung offers its
// rate for the same simulated time.
func kvRequests(sz sizes, rates [kvRungs]float64) int {
	n := 0
	for _, rate := range rates {
		n += int(rate * sz.kvRungSec)
	}
	return n
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// runKV drives the served path: an open loop of Poisson arrivals from a
// million virtual clients on 4 client nodes against 4 servers, once per
// rung of the offered-load ladder. The request generator lives inside
// kv.Service, so what this program hands over is the seed, not a request
// list; latency is timed by the service from each request's scheduled
// arrival.
func runKV(r *rep, sz sizes, mix load.Mix, rates [kvRungs]float64) {
	var ladder []rung
	var sum kv.Result // counters summed over the rungs
	for i, rate := range rates {
		cfg := kv.Config{
			Servers: 4, ClientNodes: 4, Keys: 1 << 16, Zipf: 1.3, Mix: mix,
			VirtualClients: 1 << 20, Rate: rate, Requests: int(rate * sz.kvRungSec),
			Seed: r.seed, NodePar: r.nodePar, MaxAttempts: kvMaxAttempts,
		}
		name := fmt.Sprintf("r%d", i+1)
		part := r.tr.begin(r.root, name)
		var svc *kv.Service
		var res *kv.Result
		var err error
		r.setupCall(part, "kv.New", func() { svc, err = kv.New(cfg) })
		if err != nil {
			r.err = err
			return
		}
		d := r.timed(part, "svc.Run", func() { res, err = svc.Run() }, func() map[string]float64 {
			if res == nil {
				return nil
			}
			return amCounts(res.AM)
		})
		r.verify(part, func() error {
			if err != nil {
				return fmt.Errorf("kv rung %.0f: %w", rate, err)
			}
			if err := svc.CheckInvariants(); err != nil {
				return fmt.Errorf("kv rung %.0f: %w", rate, err)
			}
			if res.StaleServed != 0 || res.Issued != int64(cfg.Requests) || res.Issued != res.Completed+res.Conflicts+res.Unavail {
				return fmt.Errorf("kv rung %.0f: %d stale serves; issued %d of %d, outcomes %d",
					rate, res.StaleServed, res.Issued, cfg.Requests, res.Completed+res.Conflicts+res.Unavail)
			}
			return nil
		})
		r.tr.end(part, nil)
		if r.err != nil {
			return
		}
		secs := res.Makespan.Seconds()
		rg := rung{
			offeredRPS: rate,
			goodputRPS: float64(res.Completed) / secs,
			p99US:      usOf(res.Lat.Quantile(0.99)),
			failShare:  float64(res.Conflicts+res.Unavail) / float64(res.Issued),
		}
		ladder = append(ladder, rg)
		r.failed += int(res.Conflicts + res.Unavail)
		r.simNS += int64(res.Makespan)
		if !r.collect {
			continue
		}
		pre := "kv." + name
		r.set(pre+".p99_us", rg.p99US)
		r.set(pre+".get_p99_us", usOf(res.LatGet.Quantile(0.99)))
		r.set(pre+".write_p99_us", usOf(res.LatWrite.Quantile(0.99)))
		r.set(pre+".goodput_rps", rg.goodputRPS)
		r.set(pre+".host_us_per_req", float64(d.Microseconds())/float64(cfg.Requests))
		r.set(pre+".host_s_per_sim_s", d.Seconds()/secs)
		if i == kvRefRung {
			r.set("sim_lat_p50_us", usOf(res.Lat.Quantile(0.5)))
			r.set("sim_lat_p99_us", rg.p99US)
			r.set("sim_get_p99_us", usOf(res.LatGet.Quantile(0.99)))
			r.set("sim_write_p99_us", usOf(res.LatWrite.Quantile(0.99)))
			r.setTail(res.Lat.Count(), func(q float64) float64 { return usOf(res.Lat.Quantile(q)) })
		}
		addKV(&sum, res)
	}
	if !r.collect {
		return
	}
	writes := float64(sum.Puts + sum.Deletes + sum.Batches)
	so := sum.ServerOps
	r.set("sim_sat_rps", satRate(ladder))
	r.set("kv.hit_rate", share(float64(sum.CacheHits), float64(sum.Gets)))
	r.set("kv.coalesced_share", share(float64(sum.Coalesced), float64(sum.Gets)))
	r.set("kv.lock_retries_per_write", share(float64(sum.LockRetries), writes))
	r.set("kv.deferrals_per_op", share(float64(sum.Deferrals), float64(sum.Issued)))
	r.set("kv.backoffs_per_write", share(float64(sum.Backoffs), writes))
	r.set("kv.batched_put_share", share(float64(sum.BatchedPuts), float64(sum.Puts)))
	r.set("kv.combined_put_share", share(float64(sum.CombinedPuts), float64(sum.Puts)))
	r.set("kv.invals_per_write", share(float64(so.Invals), writes))
	r.set("kv.server_ops_per_op", share(float64(so.Gets+so.Locks+so.Commits+so.Deletes+so.Unlocks), float64(sum.Issued)))
}

// addKV sums the counters the per-workload kv ratios are made of.
func addKV(sum, res *kv.Result) {
	sum.Issued += res.Issued
	sum.Gets += res.Gets
	sum.Puts += res.Puts
	sum.Deletes += res.Deletes
	sum.Batches += res.Batches
	sum.LockRetries += res.LockRetries
	sum.Deferrals += res.Deferrals
	sum.Backoffs += res.Backoffs
	sum.BatchedPuts += res.BatchedPuts
	sum.CombinedPuts += res.CombinedPuts
	sum.CacheHits += res.CacheHits
	sum.Coalesced += res.Coalesced
	sum.ServerOps.Gets += res.ServerOps.Gets
	sum.ServerOps.Locks += res.ServerOps.Locks
	sum.ServerOps.Commits += res.ServerOps.Commits
	sum.ServerOps.Deletes += res.ServerOps.Deletes
	sum.ServerOps.Unlocks += res.ServerOps.Unlocks
	sum.ServerOps.Invals += res.ServerOps.Invals
}
