// Package kv is a sharded key-value service whose RPC transport is the SP
// Active Message layer: the first layer in the repo that *serves* traffic
// rather than benchmarking echoes. Server nodes own hash-sharded keyspace
// partitions with per-shard latch tables (see latches.go); clients drive
// deterministic open-loop load (internal/kv/load) against them and record
// per-request latency into trace log2 histograms.
//
// Every operation is a short-message conversation within the GAM handler
// rules — request handlers may only reply, so all multi-step coordination
// is client-driven:
//
//   - Get: one request to the shard's primary replica.
//   - Put/Delete: a percolator-lite mini-transaction — try-lock the key at
//     its primary, commit the value to every live replica, unlock. The
//     primary latch serializes writers per key, so replicas converge.
//   - Batch: the same two-phase protocol over multiple keys; any lock
//     denial aborts (unlocking granted latches) and retries after a
//     deterministic exponential backoff, so there is no distributed
//     blocking and no deadlock.
//
// Single-key PUTs additionally ride the write batcher (see batch.go and
// wire.go): puts bound for the same shard coalesce into one multi-op
// lock-all/commit-all/unlock-all round carried by am_store, with per-op
// grant status in the reply and server-side last-writer-wins combining of
// same-key puts within a batch.
//
// Fail-stop servers are detected by the AM layer's adaptive keep-alive
// ladder; the client's *am.PeerDeathError handler resolves every in-flight
// sub-request toward the dead peer and the operation restarts against the
// surviving replicas (commits are idempotent). Requests whose shard has no
// live replica left terminate with a typed Unavailable outcome — every
// request ends in a reply or a typed error in bounded simulated time.
package kv

import (
	"fmt"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/kv/load"
	"spam/internal/sim"
	"spam/internal/trace"
)

// Outcome statuses. OK/NotFound/Locked travel on the wire in replies;
// Conflict and Unavailable are client-side terminal outcomes.
const (
	StatusOK          uint32 = 0
	StatusNotFound    uint32 = 1
	StatusLocked      uint32 = 2
	StatusConflict    uint32 = 3 // gave up after MaxAttempts lock rounds
	StatusUnavailable uint32 = 4 // no live replica for a needed shard
)

// Config describes one kv run: the cluster shape, the keyspace sharding,
// the offered load, and the optional mid-run server kill.
type Config struct {
	Servers     int // server nodes (node ids 0..Servers-1)
	ClientNodes int // client nodes (node ids Servers..Servers+ClientNodes-1)

	ShardsPerServer int // keyspace partitions per server (default 8)
	Replicas        int // replicas per shard (default 2, clamped to Servers)
	Keys            int // keyspace size (default 1<<16)

	Rate           float64  // aggregate offered load, requests/s of simulated time
	Requests       int      // total requests to issue across all client nodes
	Zipf           float64  // key-popularity skew (<= 1 selects uniform)
	Mix            load.Mix // operation mix (zero value selects load.DefaultMix)
	VirtualClients int      // simulated end-clients multiplexed over the client nodes

	Seed uint64 // run seed (default 1); client node i forks a derived stream

	Slots        int      // in-flight request slots per client node (default 256, max 4096)
	InflightCap  int      // per-server outstanding cap per client (default 64 < request window 72)
	RetryBackoff sim.Time // lock-denial retry delay (default 20us)
	MaxAttempts  int      // lock rounds before a Conflict give-up (default 64)

	KillServer int      // server to fail-stop mid-run (-1 = none)
	KillAt     sim.Time // kill time

	// Client read cache (see cache.go). Leases bound staleness; the
	// invalidation push only shrinks it, so NoInvalPush is safe (and is how
	// the lease-expiry path is tested).
	CacheOff    bool     // disable the client read cache and GET coalescing
	CacheSize   int      // cache entries per client node (default 4096)
	Lease       sim.Time // read-lease duration (default 100ms)
	HolderCap   int      // tracked lease holders per key (default/max 4)
	NoInvalPush bool     // suppress the push; rely on lease expiry alone

	// Write batching (see batch.go). Single-key PUTs bound for the same
	// shard coalesce into one lock-all/commit-all/unlock-all round; the
	// flush window doubles as the server-side combine window (puts to the
	// same key inside it land in one batch and are combined last-writer-
	// wins at commit).
	BatchOff    bool     // disable commit batching and write combining
	BatchOps    int      // max PUTs per batch (default 16, max 32)
	BatchWindow sim.Time // flush window: max simulated-time wait to fill a batch (default 20us)
	BackoffCap  int      // max lock-retry backoff doublings (default 6)
	LegacyRetry bool     // fixed RetryBackoff delay, no exponential backoff or jitter (A/B baseline)

	NodePar  int      // intra-run PDES shards (0 = hw.DefaultNodePar)
	Watchdog sim.Time // RunChecked no-progress budget (default 200ms)
}

// withDefaults fills the zero values and validates the shape.
func (c Config) withDefaults() (Config, error) {
	if c.Servers < 1 || c.ClientNodes < 1 {
		return c, fmt.Errorf("kv: need at least 1 server and 1 client node (got %d/%d)", c.Servers, c.ClientNodes)
	}
	if c.ShardsPerServer <= 0 {
		c.ShardsPerServer = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > c.Servers {
		c.Replicas = c.Servers
	}
	if c.Replicas > maxReplicas {
		c.Replicas = maxReplicas
	}
	if c.Keys <= 0 {
		c.Keys = 1 << 16
	}
	if c.Rate <= 0 {
		return c, fmt.Errorf("kv: Rate must be positive")
	}
	if c.Requests <= 0 {
		return c, fmt.Errorf("kv: Requests must be positive")
	}
	if c.Mix == (load.Mix{}) {
		c.Mix = load.DefaultMix()
	}
	if c.VirtualClients <= 0 {
		c.VirtualClients = c.ClientNodes
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Slots <= 0 {
		c.Slots = 256
	}
	if c.Slots > maxSlots {
		return c, fmt.Errorf("kv: Slots %d exceeds max %d", c.Slots, maxSlots)
	}
	if c.InflightCap <= 0 {
		c.InflightCap = 64
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = hw.US(20)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.Lease <= 0 {
		c.Lease = hw.US(100_000)
	}
	if c.HolderCap <= 0 || c.HolderCap > holderMax {
		c.HolderCap = holderMax
	}
	if c.BatchOps <= 0 {
		c.BatchOps = 16
	}
	if c.BatchOps > maxBatchOps {
		return c, fmt.Errorf("kv: BatchOps %d exceeds max %d (grant bitmap is one wire word)", c.BatchOps, maxBatchOps)
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = hw.US(20)
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 6
	}
	if c.Servers*c.ShardsPerServer > 1<<12 {
		return c, fmt.Errorf("kv: %d shards exceed the batch reqID encoding (12 bits)", c.Servers*c.ShardsPerServer)
	}
	if c.ClientNodes > 1<<16 {
		return c, fmt.Errorf("kv: ClientNodes %d exceeds the holder encoding (16 bits)", c.ClientNodes)
	}
	if c.KillServer == 0 && c.KillAt == 0 {
		c.KillServer = -1 // zero value means "no kill"
	}
	if c.KillServer >= c.Servers {
		return c, fmt.Errorf("kv: KillServer %d out of range", c.KillServer)
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 200 * hw.US(1000)
	}
	return c, nil
}

// amOptions tunes the AM keep-alive ladder for a serving workload: a busy
// client accumulates empty polls toward a dead server far more slowly than
// an idle endpoint, so the defaults' half-second detection would stretch
// into a very long unavailability window. Smaller thresholds keep the
// fail-stop detection — and with it the served tail — bounded in the few-ms
// range while staying far above any legitimate reply latency.
func (c Config) amOptions() am.Options {
	o := am.DefaultOptions()
	o.KeepAlivePolls = 150
	o.BackoffCap = 4
	o.DeathThreshold = 6
	return o
}

const (
	maxSlots    = 4096 // slot index must fit the reqID encoding (12 bits)
	maxKeys     = 2    // keys per Batch
	maxReplicas = 3
	maxTargets  = maxKeys * maxReplicas
	holderMax   = 4 // inline lease-holder slots per key (see holderSet)
)

// Service is one instantiated kv cluster: servers, clients, and the shared
// handler table. Build with New, drive with Run, then inspect (tests use
// CheckInvariants and ReadKey on the post-run state).
type Service struct {
	cfg       Config
	cluster   *hw.Cluster
	sys       *am.System
	servers   []*server
	clients   []*client
	numShards int

	hGet, hLock, hCommitPut, hCommitDel, hUnlock, hDone, hResp, hInval am.HandlerID
	hLockB, hCommitB, hUnlockB, hBResp                                 am.HandlerID

	stageSeg int // batch staging segment id, identical on every server

	// staleCheck, when set (tests; serial runs only, since it reads server
	// state from the client's process), observes every cache-served GET:
	// (key, served version, serve time). It must not mutate anything.
	staleCheck func(key, ver uint32, now sim.Time)

	// batchInvalCheck, when set (tests; serial runs only), observes every
	// batched commit's version bump: (key, invalidation pushes queued,
	// unexpired tracked holders). The push protocol queues one per live
	// holder — including the writer, whose batch reply cannot carry per-key
	// versions. It must not mutate anything.
	batchInvalCheck func(key uint32, queued, live int)
}

// New builds the cluster, registers the handler table, and spawns the
// server and client processes. Call Run to execute.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	hc := hw.DefaultConfig(cfg.Servers + cfg.ClientNodes)
	hc.Seed = cfg.Seed
	hc.NodePar = cfg.NodePar
	c := hw.NewCluster(hc)
	sys := am.NewWithOptions(c, cfg.amOptions())
	svc := &Service{
		cfg:       cfg,
		cluster:   c,
		sys:       sys,
		numShards: cfg.Servers * cfg.ShardsPerServer,
	}
	svc.registerHandlers()

	for k := 0; k < cfg.Servers; k++ {
		srv := newServer(svc, k, sys.EPs[k])
		sys.EPs[k].Data = srv
		svc.servers = append(svc.servers, srv)
		if !cfg.BatchOff {
			// Batch staging: one block per (client, shard) so concurrent
			// batches never share bytes. Registered first on every server,
			// so one segment id addresses them all.
			seg := sys.EPs[k].Node().Mem.Add(make([]byte, cfg.ClientNodes*svc.numShards*stageBytes))
			if k == 0 {
				svc.stageSeg = seg
			} else if seg != svc.stageSeg {
				panic("kv: staging segment id differs across servers")
			}
		}
	}
	base, extra := cfg.Requests/cfg.ClientNodes, cfg.Requests%cfg.ClientNodes
	vbase, vextra := cfg.VirtualClients/cfg.ClientNodes, cfg.VirtualClients%cfg.ClientNodes
	vlo := 0
	for j := 0; j < cfg.ClientNodes; j++ {
		budget, vn := base, vbase
		if j < extra {
			budget++
		}
		if j < vextra {
			vn++
		}
		cl := newClient(svc, j, sys.EPs[cfg.Servers+j], budget, uint32(vlo), uint32(vn))
		vlo += vn
		sys.EPs[cfg.Servers+j].Data = cl
		sys.EPs[cfg.Servers+j].SetErrorHandler(cl.onPeerDeath)
		svc.clients = append(svc.clients, cl)
	}
	if cfg.KillServer >= 0 {
		c.Kill(cfg.KillServer, cfg.KillAt)
	}
	for k := 0; k < cfg.Servers; k++ {
		srv := svc.servers[k]
		c.Spawn(k, "kv-server", srv.run)
	}
	for j := 0; j < cfg.ClientNodes; j++ {
		cl := svc.clients[j]
		c.Spawn(cfg.Servers+j, "kv-client", cl.run)
	}
	return svc, nil
}

// registerHandlers installs the SPMD handler table. Server-side handlers
// dispatch through ep.Data (the node's *server); the reply handler through
// the node's *client.
func (svc *Service) registerHandlers() {
	svc.hGet = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*server).onGet(p, ep, tok, args)
	})
	svc.hLock = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*server).onLock(p, ep, tok, args)
	})
	svc.hCommitPut = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*server).onCommitPut(p, ep, tok, args)
	})
	svc.hCommitDel = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*server).onCommitDel(p, ep, tok, args)
	})
	svc.hUnlock = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*server).onUnlock(p, ep, tok, args)
	})
	svc.hDone = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*server).onDone(p, ep, tok, args)
	})
	svc.hResp = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*client).onResp(args)
	})
	svc.hInval = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*client).onInval(args)
	})
	svc.hLockB = svc.sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*server).onLockBatch(p, ep, tok, addr, n, arg)
	})
	svc.hCommitB = svc.sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*server).onCommitBatch(p, ep, tok, addr, n, arg)
	})
	svc.hUnlockB = svc.sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*server).onUnlockBatch(p, ep, tok, addr, n, arg)
	})
	svc.hBResp = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*client).onBResp(args)
	})
}

// mix32 is a bijective 32-bit hash (MurmurHash3 finalizer) used to spread
// keys over shards independently of the load generator's rank scatter.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// shardOf maps a key to its shard.
func (svc *Service) shardOf(key uint32) int {
	return int(mix32(key) % uint32(svc.numShards))
}

// replicaSrv returns the server hosting replica i of shard sh.
func (svc *Service) replicaSrv(sh, i int) int {
	return (sh + i) % svc.cfg.Servers
}

// hostsShard reports whether server k holds a replica of shard sh.
func (svc *Service) hostsShard(k, sh int) bool {
	for i := 0; i < svc.cfg.Replicas; i++ {
		if svc.replicaSrv(sh, i) == k {
			return true
		}
	}
	return false
}

// Result aggregates one run: per-outcome counts, latency histograms
// (open-loop: measured from the scheduled arrival, so queueing delay and
// failover stalls count), and the fail-stop report for kill runs. All
// fields are deterministic — byte-identical serial vs -nodepar.
type Result struct {
	Issued    int64
	Completed int64 // OK or NotFound terminal outcomes
	NotFound  int64
	Conflicts int64 // Conflict give-ups (typed error)
	Unavail   int64 // Unavailable outcomes (typed error)

	Gets, Puts, Deletes, Batches int64

	LockRetries int64 // lock rounds lost to a denial
	Failovers   int64 // operations that survived a replica death
	Deferrals   int64 // dispatches deferred on the per-server in-flight cap

	// Write-batching accounting, summed over client nodes. BatchedPuts
	// counts the distinct PUTs whose first dispatch rode a multi-op batch
	// (denied members re-ride after backoff without being recounted; the
	// rest went through the classic per-op rounds); CombinedPuts the ones
	// superseded by a
	// later put to the same key in their batch (the server applied the
	// survivor once, last-writer-wins); Backoffs the retries that slept on
	// the exponential-backoff queue.
	WriteBatches int64
	BatchedPuts  int64
	CombinedPuts int64
	Backoffs     int64

	BatchSize trace.Histogram // ops per flushed batch

	// Read-cache accounting, summed over client nodes. Every GET is
	// exactly one of CacheHits, Coalesced, or a fetch (CacheMisses +
	// CacheStale); with no failover, fetches == ServerOps.Gets.
	CacheHits   int64
	CacheMisses int64
	CacheStale  int64 // present but invalidated or lease-expired
	Coalesced   int64 // rode another slot's in-flight fetch
	InvalsRecv  int64 // invalidation pushes delivered to clients
	Evictions   int64 // LRU evictions
	StaleFills  int64 // fetches served but not cached (invalidation raced the reply)
	StaleServed int64 // lease-bound violations: must be 0

	Lat, LatGet, LatWrite trace.Histogram

	Makespan sim.Time // latest client finish time
	Detect   sim.Time // kill runs: max detection latency across clients
	Unavail_ sim.Time // kill runs: kill -> last failed-over request completed

	ServerOps ServerOps
	AM        am.Stats
}

// ServerOps counts operations served, summed over all servers.
type ServerOps struct {
	Gets, Locks, LockDenied, Commits, Deletes, Unlocks int64

	Invals          int64 // invalidation pushes sent
	InvalsDropped   int64 // pushes skipped (client finished or unreachable)
	HolderOverflows int64 // GETs not tracked because the holder set was full
	CommitDups      int64 // failover re-commits deduplicated by version bump

	BatchRounds int64 // lock-all batch rounds served
	Combined    int64 // batch commit ops superseded by a later same-key op (per replica)
}

// Throughput is the achieved request rate over the makespan.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Completed+r.Conflicts+r.Unavail) / r.Makespan.Seconds()
}

// HitRate is the fraction of GETs served from the client caches.
func (r *Result) HitRate() float64 {
	if r.Gets == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Gets)
}

// Run drives the simulation to completion and gathers the result. The
// liveness watchdog converts a wedged run into an error instead of a hang.
func (svc *Service) Run() (*Result, error) {
	if err := svc.cluster.RunChecked(svc.cfg.Watchdog); err != nil {
		return nil, err
	}
	res := svc.gather()
	svc.foldMetrics(res)
	return res, nil
}

// Events reports the simulation events executed so far, summed over shards:
// the deterministic proxy for what a run costs the host.
func (svc *Service) Events() int64 { return svc.cluster.Events() }

// Run builds and executes cfg in one call.
func Run(cfg Config) (*Result, error) {
	svc, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return svc.Run()
}

// gather folds the per-client and per-server state, in fixed node order,
// into a Result.
func (svc *Service) gather() *Result {
	res := &Result{}
	var maxDetect, maxFailoverDone sim.Time
	for _, cl := range svc.clients {
		st := &cl.st
		res.Issued += int64(cl.issued)
		res.Completed += st.Completed
		res.NotFound += st.NotFound
		res.Conflicts += st.ConflictGiveups
		res.Unavail += st.Unavailable
		res.Gets += st.Gets
		res.Puts += st.Puts
		res.Deletes += st.Deletes
		res.Batches += st.Batches
		res.LockRetries += st.LockRetries
		res.Failovers += st.Failovers
		res.Deferrals += st.Deferrals
		res.WriteBatches += st.WriteBatches
		res.BatchedPuts += st.BatchedPuts
		res.CombinedPuts += st.CombinedPuts
		res.Backoffs += st.Backoffs
		res.BatchSize.Merge(&st.BatchSize)
		res.CacheHits += st.CacheHits
		res.CacheMisses += st.CacheMisses
		res.CacheStale += st.CacheStale
		res.Coalesced += st.Coalesced
		res.InvalsRecv += st.InvalsRecv
		res.Evictions += st.Evictions
		res.StaleFills += st.StaleFills
		res.StaleServed += st.StaleServed
		res.Lat.Merge(&st.Lat)
		res.LatGet.Merge(&st.LatGet)
		res.LatWrite.Merge(&st.LatWrite)
		if st.FinishAt > res.Makespan {
			res.Makespan = st.FinishAt
		}
		if st.DetectAt > maxDetect {
			maxDetect = st.DetectAt
		}
		if st.LastFailoverDone > maxFailoverDone {
			maxFailoverDone = st.LastFailoverDone
		}
	}
	for _, srv := range svc.servers {
		res.ServerOps.Gets += srv.gets
		res.ServerOps.Locks += srv.locks
		res.ServerOps.LockDenied += srv.lockDenied
		res.ServerOps.Commits += srv.commits
		res.ServerOps.Deletes += srv.deletes
		res.ServerOps.Unlocks += srv.unlocks
		res.ServerOps.Invals += srv.invalsSent
		res.ServerOps.InvalsDropped += srv.invalsDropped
		res.ServerOps.HolderOverflows += srv.holderOverflows
		res.ServerOps.CommitDups += srv.commitDups
		res.ServerOps.BatchRounds += srv.batchRounds
		res.ServerOps.Combined += srv.combined
	}
	if svc.cfg.KillServer >= 0 {
		if maxDetect > svc.cfg.KillAt {
			res.Detect = maxDetect - svc.cfg.KillAt
		}
		if maxFailoverDone > svc.cfg.KillAt {
			res.Unavail_ = maxFailoverDone - svc.cfg.KillAt
		}
	}
	res.AM = svc.sys.Totals()
	return res
}

// foldMetrics publishes the run into the process-wide metrics registry when
// one is installed (the commands' -metrics flag), using Histogram.Merge so
// multiple runs accumulate.
func (svc *Service) foldMetrics(res *Result) {
	reg := am.DefaultMetrics
	if reg == nil {
		return
	}
	reg.Histogram("kv.latency_ns").Merge(&res.Lat)
	reg.Histogram("kv.latency_get_ns").Merge(&res.LatGet)
	reg.Histogram("kv.latency_write_ns").Merge(&res.LatWrite)
	reg.Counter("kv.completed").Add(res.Completed)
	reg.Counter("kv.not_found").Add(res.NotFound)
	reg.Counter("kv.conflict_giveups").Add(res.Conflicts)
	reg.Counter("kv.unavailable").Add(res.Unavail)
	reg.Counter("kv.lock_retries").Add(res.LockRetries)
	reg.Counter("kv.failovers").Add(res.Failovers)
	reg.Counter("kv.deferrals").Add(res.Deferrals)
	reg.Counter("kv.server.locks").Add(res.ServerOps.Locks)
	reg.Counter("kv.server.lock_denied").Add(res.ServerOps.LockDenied)
	reg.Counter("kv.server.combined").Add(res.ServerOps.Combined)
	reg.Counter("kv.write.batches").Add(res.WriteBatches)
	reg.Counter("kv.write.batched_puts").Add(res.BatchedPuts)
	reg.Counter("kv.write.combined").Add(res.CombinedPuts)
	reg.Counter("kv.write.backoffs").Add(res.Backoffs)
	reg.Histogram("kv.write.batch_size").Merge(&res.BatchSize)
	reg.Counter("kv.cache.hits").Add(res.CacheHits)
	reg.Counter("kv.cache.misses").Add(res.CacheMisses)
	reg.Counter("kv.cache.stale").Add(res.CacheStale)
	reg.Counter("kv.cache.coalesced").Add(res.Coalesced)
	reg.Counter("kv.cache.evictions").Add(res.Evictions)
	reg.Counter("kv.cache.invals_recv").Add(res.InvalsRecv)
	reg.Counter("kv.server.invals").Add(res.ServerOps.Invals)
}

// ReadKey reads a key from the first live replica's post-run state (tests).
func (svc *Service) ReadKey(key uint32) (uint32, bool) {
	sh := svc.shardOf(key)
	for i := 0; i < svc.cfg.Replicas; i++ {
		srv := svc.replicaSrv(sh, i)
		if svc.cluster.Nodes[srv].Killed() {
			continue
		}
		v, ok := svc.servers[srv].shards[sh].store[key]
		return v, ok
	}
	return 0, false
}

// CheckInvariants verifies the post-run state: no latch is left held on any
// live server, and every shard's live replicas hold identical stores and
// identical per-key version metadata (the primary-latch write protocol plus
// the commit-dedup version bump must keep both convergent — a version skew
// would let caches accept fills that resurrect overwritten data).
func (svc *Service) CheckInvariants() error {
	for sh := 0; sh < svc.numShards; sh++ {
		var ref map[uint32]uint32
		var refMeta map[uint32]keyMeta
		refSrv := -1
		for i := 0; i < svc.cfg.Replicas; i++ {
			srvID := svc.replicaSrv(sh, i)
			if svc.cluster.Nodes[srvID].Killed() {
				continue
			}
			s := svc.servers[srvID].shards[sh]
			if n := len(s.latch); n != 0 {
				return fmt.Errorf("kv: server %d shard %d: %d latches leaked", srvID, sh, n)
			}
			if ref == nil {
				ref, refMeta, refSrv = s.store, s.meta, srvID
				continue
			}
			if len(s.store) != len(ref) {
				return fmt.Errorf("kv: shard %d: replica %d has %d keys, replica %d has %d",
					sh, srvID, len(s.store), refSrv, len(ref))
			}
			for k, v := range ref {
				if w, ok := s.store[k]; !ok || w != v {
					return fmt.Errorf("kv: shard %d key %d: replica %d=%d(%v), replica %d=%d",
						sh, k, srvID, w, ok, refSrv, v)
				}
			}
			if len(s.meta) != len(refMeta) {
				return fmt.Errorf("kv: shard %d: replica %d has %d versioned keys, replica %d has %d",
					sh, srvID, len(s.meta), refSrv, len(refMeta))
			}
			for k, m := range refMeta {
				if w := s.meta[k]; w.ver != m.ver || w.lastOp != m.lastOp {
					return fmt.Errorf("kv: shard %d key %d: version skew: replica %d v%d/op%x, replica %d v%d/op%x",
						sh, k, srvID, w.ver, w.lastOp, refSrv, m.ver, m.lastOp)
				}
			}
		}
	}
	return nil
}

// KeyVersion returns the highest committed version of key across live
// replicas and the time that version was applied there (tests; the
// staleness oracle reads it mid-run, so serial runs only).
func (svc *Service) KeyVersion(key uint32) (uint32, sim.Time) {
	sh := svc.shardOf(key)
	var ver uint32
	var at sim.Time
	for i := 0; i < svc.cfg.Replicas; i++ {
		srv := svc.replicaSrv(sh, i)
		if svc.cluster.Nodes[srv].Killed() {
			continue
		}
		if m := svc.servers[srv].shards[sh].meta[key]; m.ver > ver {
			ver, at = m.ver, m.verAt
		}
	}
	return ver, at
}
