// Package kv is a sharded key-value service whose RPC transport is the SP
// Active Message layer: the first layer in the repo that *serves* traffic
// rather than benchmarking echoes. Server nodes own hash-sharded keyspace
// partitions; clients drive deterministic open-loop load (internal/kv/load)
// against them and record per-request latency into trace log2 histograms.
//
// Every operation is a conversation within the GAM handler rules — request
// handlers may only reply, so all multi-step coordination is client-driven.
// A GET is one request to the shard's primary replica (cache.go keeps most of
// them off the network). Every write is one transaction (txn.go) over a
// vector of 1..N ops: a DELETE is one op, a Batch the two ops of its atomic
// even/odd pair, and PUTs bound for one shard coalesce — they wait on the
// shard's queue until BatchOps are there or BatchWindow of simulated time
// has passed, and while a vector of several is in flight arrivals accumulate
// behind it, so vectors grow with the load and cost nothing without it.
//
// A transaction runs three rounds, percolator-lite:
//
//   - lock: try-lock every key at its shard's primary. Each replica's record
//     of a key carries a latch, in the style of tinykv's latches: the owning
//     transaction, or none. A denied lock is reported, never queued, so the
//     server never blocks, concurrent writers of different keys proceed
//     independently, and multi-key transactions cannot deadlock. The reply
//     is a grant bitmap: a member denied while holding nothing leaves the
//     transaction and retries after a deterministic exponential backoff
//     (20 µs doubling up to six times, jittered from a seeded
//     per-client stream; MaxAttempts lock rounds, then a typed Conflict); the
//     granted members go on. A Batch granted one key of two releases it first.
//   - commit: apply the granted ops at every live replica. The primary latch
//     serializes writers per key, so replicas converge. Same-key puts in one
//     vector combine last-writer-wins: one store write, one version bump.
//   - unlock: release the latches at the servers that granted them.
//
// A round sends, per shard, the ops bound for it, and the encoding follows
// the length of that vector (wire.go): one op rides a short request — four
// words are all a short message carries — and more ride am_store into a
// staging block with one short reply for the lot. The short form is the
// cheaper one for a single op (EXPERIMENTS.md has the measurement), which is
// what an unloaded service sends.
//
// Fail-stop servers are detected by the AM layer's adaptive keep-alive
// ladder; the client's *am.PeerDeathError handler resolves every in-flight
// sub-request toward the dead peer. A GET re-routes to the next replica. A
// write round that lost a server releases what it still holds and its
// members start over against the survivors, PUTs through their shard queue
// again (commits are idempotent: each op carries a dedup id that is the same
// in every transaction that carries it). Requests whose shard has no live
// replica left terminate with a typed Unavailable outcome — every request
// ends in a reply or a typed error in bounded simulated time.
package kv

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/kv/load"
	"spam/internal/sim"
	"spam/internal/trace"
)

// Outcome statuses. OK and NotFound travel on the wire in GET replies;
// Conflict and Unavailable are client-side terminal outcomes.
const (
	StatusOK          uint32 = 0
	StatusNotFound    uint32 = 1
	StatusConflict    uint32 = 3 // gave up after MaxAttempts lock rounds
	StatusUnavailable uint32 = 4 // no live replica for a needed shard
)

// Config describes one kv run: the cluster shape, the keyspace sharding,
// the offered load, and the optional fault plan. A zero field with a default
// takes it; a negative one is an error naming the field.
type Config struct {
	Servers     int // server nodes (node ids 0..Servers-1)
	ClientNodes int // client nodes (node ids Servers..Servers+ClientNodes-1)

	ShardsPerServer int // keyspace partitions per server (default 8)
	Replicas        int // replicas per shard (default 2, clamped to Servers)
	Keys            int // keyspace size (default 1<<16, max 1<<22)

	Rate     float64  // aggregate offered load, requests/s of simulated time
	Requests int      // total requests to issue across all client nodes
	Zipf     float64  // key-popularity skew (<= 1 selects uniform)
	Mix      load.Mix // operation mix (zero value selects load.DefaultMix)
	// VirtualClients is the number of end-client ids spread over the client
	// nodes, at least one per node (default ClientNodes). Each request draws
	// its id once from its node's range; nothing in the model reads it.
	VirtualClients int

	Seed uint64 // run seed (default 1); client node i forks a derived stream

	MaxAttempts int // lock rounds before a Conflict give-up (default 64, max 65535)

	Plan *faults.Plan // nil = lossless; its kills must name servers

	// Client read cache (see cache.go).
	CacheOff  bool     // disable the client read cache and GET coalescing
	CacheSize int      // cache entries per client node (default 4096)
	Lease     sim.Time // read-lease duration (default 100ms)

	// Write coalescing: PUTs bound for one shard share a transaction.
	BatchOps    int      // max PUTs per transaction (default 16, max 32; 1 = no coalescing)
	BatchWindow sim.Time // flush window: max simulated-time wait to fill a vector (default 20us)

	NodePar int // accepted and ignored: benchmark/ sets it
}

// Validate reports the error New would return for c, without building
// anything: commands call it on flag-built configs before a sweep starts.
func (c Config) Validate() error {
	_, err := c.withDefaults()
	return err
}

// withDefaults fills the zero values and validates the shape.
func (c Config) withDefaults() (Config, error) {
	if c.Servers < 1 || c.ClientNodes < 1 {
		return c, fmt.Errorf("kv: need at least 1 server and 1 client node (got %d/%d)", c.Servers, c.ClientNodes)
	}
	var err error
	orDefault(&err, "ShardsPerServer", &c.ShardsPerServer, 8)
	orDefault(&err, "Replicas", &c.Replicas, 2)
	orDefault(&err, "Keys", &c.Keys, 1<<16)
	orDefault(&err, "VirtualClients", &c.VirtualClients, c.ClientNodes)
	orDefault(&err, "MaxAttempts", &c.MaxAttempts, 64)
	orDefault(&err, "CacheSize", &c.CacheSize, 4096)
	orDefault(&err, "Lease", &c.Lease, hw.US(100_000))
	orDefault(&err, "BatchOps", &c.BatchOps, 16)
	orDefault(&err, "BatchWindow", &c.BatchWindow, hw.US(20))
	if err != nil {
		return c, err
	}
	if c.VirtualClients < c.ClientNodes {
		return c, fmt.Errorf("kv: VirtualClients %d is below ClientNodes %d (each client node needs one)", c.VirtualClients, c.ClientNodes)
	}
	c.Replicas = min(c.Replicas, c.Servers, maxReplicas)
	if c.Keys > maxKeyspace {
		return c, fmt.Errorf("kv: Keys %d exceeds max %d (the per-key table is sized by it)", c.Keys, maxKeyspace)
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return c, fmt.Errorf("kv: Rate must be positive and finite (got %v)", c.Rate)
	}
	if math.IsNaN(c.Zipf) || math.IsInf(c.Zipf, 0) {
		return c, fmt.Errorf("kv: Zipf must be finite (got %v)", c.Zipf)
	}
	if c.Requests <= 0 {
		return c, fmt.Errorf("kv: Requests must be positive")
	}
	if c.Mix == (load.Mix{}) {
		c.Mix = load.DefaultMix()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxAttempts > math.MaxUint16 {
		return c, fmt.Errorf("kv: MaxAttempts %d exceeds the attempt counter (max %d)", c.MaxAttempts, math.MaxUint16)
	}
	if c.BatchOps > maxBatchOps {
		return c, fmt.Errorf("kv: BatchOps %d exceeds max %d (grant bitmap is one wire word)", c.BatchOps, maxBatchOps)
	}
	if c.ClientNodes > 1<<16 {
		return c, fmt.Errorf("kv: ClientNodes %d exceeds the holder encoding (16 bits)", c.ClientNodes)
	}
	if c.Plan != nil {
		for _, k := range c.Plan.Kills {
			if k.Node < 0 || k.Node >= c.Servers {
				return c, fmt.Errorf("kv: Plan %q kills node %d, not a server (0..%d)", c.Plan.Name, k.Node, c.Servers-1)
			}
		}
	}
	return c, nil
}

// orDefault sets a zero *v to def. A negative *v is an error naming the
// field, kept in *err unless an earlier field's is there.
func orDefault[T int | sim.Time](err *error, field string, v *T, def T) {
	switch {
	case *v < 0 && *err == nil:
		*err = fmt.Errorf("kv: %s must not be negative (got %v)", field, *v)
	case *v == 0:
		*v = def
	}
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
	slots    = 256  // in-flight request slots per client node
	maxSlots = 4096 // transaction index must fit the reqID encoding (12 bits)
	// maxKeyspace bounds Keys: the record table holds Keys x Replicas records
	// of 72 B, about 0.9 GB at this bound and three replicas.
	maxKeyspace = 1 << 22
	maxKeys     = 2 // keys per Batch
	maxReplicas = 3
	maxTargets  = maxKeys * maxReplicas
	holderMax   = 4 // tracked lease holders per key (see record)

	inflightCap = 64                   // per-server outstanding cap per client, below am's request window of 72
	watchdog    = 200 * hw.Millisecond // Run's no-progress budget (hw.Cluster.RunChecked)

	retryBackoff    = 20 * hw.Microsecond // lock-denial retry delay before doubling
	retryBackoffCap = 6                   // max lock-retry backoff doublings
)

// Compile-time range checks: a negative constant does not convert to uint,
// and a typed constant that overflows sim.Time does not compile.
const (
	_ = uint(maxSlots - slots)
	_ = retryBackoff << retryBackoffCap
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
	table     []record // every replica's per-key state: record key*Replicas+i is replica i's

	hGet, hLock, hCommit, hUnlock, hVector, hDone, hResp, hInval am.HandlerID

	stageSeg int // staging segment id, identical on every server

	// staleCheck, when set (tests), observes every cache-served GET: (key,
	// served version, serve time). It must not mutate anything.
	staleCheck func(key, ver uint32, now sim.Time)

	// batchInvalCheck, when set (tests), observes every version bump of a
	// staged commit vector: (key, invalidation pushes queued, unexpired
	// tracked holders). The push protocol queues one per live holder —
	// including the writer, whose one-word reply cannot carry per-key
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
	c := hw.NewCluster(hc)
	cfg.Plan.Apply(c)
	sys := am.NewWithOptions(c, cfg.amOptions())
	svc := &Service{
		cfg:       cfg,
		cluster:   c,
		sys:       sys,
		numShards: cfg.Servers * cfg.ShardsPerServer,
		// A Batch writes the pair key&^1, key|1, so an odd keyspace has one
		// more row than it has generated keys.
		table: make([]record, (cfg.Keys+cfg.Keys&1)*cfg.Replicas),
	}
	svc.registerHandlers()

	for k := 0; k < cfg.Servers; k++ {
		srv := newServer(svc, k, sys.EPs[k])
		sys.EPs[k].Data = srv
		svc.servers = append(svc.servers, srv)
		// Staging: one block per (client, transaction) so concurrent vectors
		// never share bytes. Registered first on every server, so one
		// segment id addresses them all.
		seg := sys.EPs[k].Node().Mem.Add(make([]byte, cfg.ClientNodes*slots*stageBytes))
		if k == 0 {
			svc.stageSeg = seg
		} else if seg != svc.stageSeg {
			panic("kv: staging segment id differs across servers")
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
// dispatch through ep.Data (the node's *server); the reply and invalidation
// handlers through the node's *client.
func (svc *Service) registerHandlers() {
	srv := func(f func(*server, *sim.Proc, *am.Endpoint, am.Token, []uint32)) am.HandlerID {
		return svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
			f(ep.Data.(*server), p, ep, tok, args)
		})
	}
	svc.hGet = srv((*server).onGet)
	svc.hLock = srv((*server).onLock)
	svc.hCommit = srv((*server).onCommit)
	svc.hUnlock = srv((*server).onUnlock)
	svc.hDone = srv((*server).onDone)
	svc.hVector = svc.sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		ep.Data.(*server).onVector(p, ep, tok, addr, n, arg)
	})
	svc.hResp = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*client).onResp(args)
	})
	svc.hInval = svc.sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		ep.Data.(*client).onInval(args)
	})
}

// shardOf maps a key to its shard through load.Mix32, so consecutive keys
// land on unrelated shards.
func (svc *Service) shardOf(key uint32) int {
	return int(load.Mix32(key) % uint32(svc.numShards))
}

// replicaSrv returns the server hosting replica i of shard sh.
func (svc *Service) replicaSrv(sh, i int) int {
	return (sh + i) % svc.cfg.Servers
}

// rec returns replica i's record of key.
func (svc *Service) rec(key uint32, i int) *record {
	return &svc.table[int(key)*svc.cfg.Replicas+i]
}

// inTable reports whether key has records; ReadKey and KeyVersion report
// zero for one that has none.
func (svc *Service) inTable(key uint32) bool {
	return int(key) < len(svc.table)/svc.cfg.Replicas
}

// Counters is the deterministic accounting of a run. Each client accumulates
// into one of its own, each server into a ServerOps, and Run sums them with
// trace.Fold, so a count is declared here and nowhere else; the metric tag is
// its name in the -metrics registry.
type Counters struct {
	Issued    int64 `metric:"kv.issued"`
	Completed int64 `metric:"kv.completed"` // OK or NotFound terminal outcomes
	NotFound  int64 `metric:"kv.not_found"`
	Conflicts int64 `metric:"kv.conflict_giveups"` // Conflict give-ups (typed error)
	Unavail   int64 `metric:"kv.unavailable"`      // Unavailable outcomes (typed error)

	Gets    int64 `metric:"kv.gets"`
	Puts    int64 `metric:"kv.puts"`
	Deletes int64 `metric:"kv.deletes"`
	Batches int64 `metric:"kv.batches"`

	LockRetries int64 `metric:"kv.lock_retries"` // members denied by a lock round
	Failovers   int64 `metric:"kv.failovers"`    // operations that survived a replica death
	Deferrals   int64 `metric:"kv.deferrals"`    // rounds deferred on the per-server in-flight cap

	// PUT coalescing. WriteBatches counts the vectors flushed from the shard
	// queues and BatchSize their lengths, 1 included; BatchedPuts the
	// distinct PUTs whose first ride was in a vector of two or more (a
	// denied member re-rides after backoff without being recounted);
	// CombinedPuts the ones superseded by a later put to the same key in
	// their vector (the server applied the survivor once, last-writer-wins);
	// Backoffs the retries that slept on the exponential-backoff queue.
	WriteBatches int64           `metric:"kv.write.batches"`
	BatchedPuts  int64           `metric:"kv.write.batched_puts"`
	CombinedPuts int64           `metric:"kv.write.combined"`
	Backoffs     int64           `metric:"kv.write.backoffs"`
	BatchSize    trace.Histogram `metric:"kv.write.batch_size"`

	// Read cache. Every GET is exactly one of CacheHits, Coalesced, or a
	// fetch (CacheMisses + CacheStale); with no failover, fetches ==
	// ServerOps.Gets.
	CacheHits   int64 `metric:"kv.cache.hits"`
	CacheMisses int64 `metric:"kv.cache.misses"`
	CacheStale  int64 `metric:"kv.cache.stale"`        // present but invalidated or lease-expired
	Coalesced   int64 `metric:"kv.cache.coalesced"`    // rode another slot's in-flight fetch
	InvalsRecv  int64 `metric:"kv.cache.invals_recv"`  // invalidation pushes delivered to clients
	Evictions   int64 `metric:"kv.cache.evictions"`    // LRU evictions
	StaleFills  int64 `metric:"kv.cache.stale_fills"`  // fetches served but not cached (an invalidation outran the reply)
	StaleServed int64 `metric:"kv.cache.stale_served"` // cache served past lease expiry: must be 0

	// Latency is open-loop: measured from the scheduled arrival, so queueing
	// delay and failover stalls count.
	Lat      trace.Histogram `metric:"kv.latency_ns"`
	LatGet   trace.Histogram `metric:"kv.latency_get_ns"`
	LatWrite trace.Histogram `metric:"kv.latency_write_ns"`

	ServerOps ServerOps
}

// ServerOps counts operations served, summed over all servers.
type ServerOps struct {
	Gets       int64 `metric:"kv.server.gets"`
	Locks      int64 `metric:"kv.server.locks"`
	LockDenied int64 `metric:"kv.server.lock_denied"`
	Commits    int64 `metric:"kv.server.commits"`
	Deletes    int64 `metric:"kv.server.deletes"`
	Unlocks    int64 `metric:"kv.server.unlocks"`

	Invals          int64 `metric:"kv.server.invals"`           // invalidation pushes sent
	InvalsDropped   int64 `metric:"kv.server.invals_dropped"`   // pushes skipped (client finished or unreachable)
	HolderOverflows int64 `metric:"kv.server.holder_overflows"` // GETs not tracked because the holder set was full
	CommitDups      int64 `metric:"kv.server.commit_dups"`      // failover re-commits deduplicated by version bump
	Combined        int64 `metric:"kv.server.combined"`         // commit ops superseded by a later same-key op (per replica)
}

// Result aggregates one run: the counters summed over nodes and the fail-stop
// report for kill runs. All fields are deterministic.
type Result struct {
	Counters

	Config Config // the configuration the run used: the caller's, defaults filled in

	Makespan      sim.Time // latest client finish time
	Detect        sim.Time // kill runs: max detection latency across clients
	UnavailWindow sim.Time // kill runs: kill -> last failed-over request completed

	AM am.Stats
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
	if err := svc.cluster.RunChecked(watchdog); err != nil {
		return nil, err
	}
	return svc.gather(), nil
}

// System is the AM system the service runs on, and through it the cluster:
// what an observer attaches to between New and Run.
func (svc *Service) System() *am.System { return svc.sys }

// Events reports the simulation events executed so far: the deterministic proxy for what a run costs the host.
func (svc *Service) Events() int64 { return svc.cluster.Events() }

// Losses reports what the fault plan and the adapters have cost so far
// (hw.Cluster.Losses).
func (svc *Service) Losses() hw.LossReport { return svc.cluster.Losses() }

// Handoffs reports the process hand-offs so far and the coroutine switches
// they took (sim.Engine.Handoffs, Switches).
func (svc *Service) Handoffs() (handoffs, switches int64) {
	return svc.cluster.Eng.Handoffs, svc.cluster.Eng.Switches
}

// Run builds and executes cfg in one call.
func Run(cfg Config) (*Result, error) {
	svc, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return svc.Run()
}

// gather folds the per-node counters, in fixed node order, into a Result,
// publishing them into the registry the AM system publishes into, when it
// has one.
func (svc *Service) gather() *Result {
	res := &Result{Config: svc.cfg, AM: svc.sys.Totals()}
	reg := svc.sys.Metrics()
	var detectAt, failoverDone sim.Time
	for _, cl := range svc.clients {
		trace.Fold(&res.Counters, &cl.st, reg)
		res.Makespan = max(res.Makespan, cl.finishAt)
		detectAt = max(detectAt, cl.detectAt)
		failoverDone = max(failoverDone, cl.lastFailoverDone)
	}
	for _, srv := range svc.servers {
		trace.Fold(&res.ServerOps, &srv.ops, reg)
	}
	if p := svc.cfg.Plan; p != nil && len(p.Kills) > 0 { // measured from the earliest kill
		killAt := slices.MinFunc(p.Kills, func(a, b faults.NodeKill) int { return cmp.Compare(a.At, b.At) }).At
		res.Detect = max(0, detectAt-killAt)
		res.UnavailWindow = max(0, failoverDone-killAt)
	}
	return res
}

// ReadKey reads a key from the first live replica's post-run state (tests).
func (svc *Service) ReadKey(key uint32) (uint32, bool) {
	if !svc.inTable(key) {
		return 0, false
	}
	sh := svc.shardOf(key)
	for i := 0; i < svc.cfg.Replicas; i++ {
		srv := svc.replicaSrv(sh, i)
		if svc.cluster.Nodes[srv].Killed() {
			continue
		}
		r := svc.rec(key, i)
		return r.val, r.present
	}
	return 0, false
}

// CheckInvariants verifies the post-run state: no latch is left held on any
// live server, and every key's live replicas hold identical values and
// identical version metadata (the primary-latch write protocol plus the
// commit-dedup version bump must keep both convergent — a version skew would
// let caches accept fills that resurrect overwritten data).
func (svc *Service) CheckInvariants() error {
	for key := uint32(0); svc.inTable(key); key++ {
		sh := svc.shardOf(key)
		var ref *record
		refSrv := -1
		for i := 0; i < svc.cfg.Replicas; i++ {
			srvID := svc.replicaSrv(sh, i)
			if svc.cluster.Nodes[srvID].Killed() {
				continue
			}
			r := svc.rec(key, i)
			if r.owner != 0 {
				return fmt.Errorf("kv: server %d key %d: latch left held by txn %#x", srvID, key, r.owner)
			}
			if ref == nil {
				ref, refSrv = r, srvID
				continue
			}
			if r.present != ref.present || r.val != ref.val {
				return fmt.Errorf("kv: key %d: replica %d=%d(%v), replica %d=%d(%v)",
					key, srvID, r.val, r.present, refSrv, ref.val, ref.present)
			}
			if r.ver != ref.ver || r.lastOp != ref.lastOp {
				return fmt.Errorf("kv: key %d: version skew: replica %d v%d/op%x, replica %d v%d/op%x",
					key, srvID, r.ver, r.lastOp, refSrv, ref.ver, ref.lastOp)
			}
		}
	}
	return nil
}

// KeyVersion returns the highest committed version of key across live
// replicas and the time that version was applied there (tests; the
// staleness oracle reads it mid-run, so serial runs only).
func (svc *Service) KeyVersion(key uint32) (uint32, sim.Time) {
	var ver uint32
	var at sim.Time
	if !svc.inTable(key) {
		return ver, at
	}
	sh := svc.shardOf(key)
	for i := 0; i < svc.cfg.Replicas; i++ {
		srv := svc.replicaSrv(sh, i)
		if svc.cluster.Nodes[srv].Killed() {
			continue
		}
		if r := svc.rec(key, i); r.ver > ver {
			ver, at = r.ver, r.verAt
		}
	}
	return ver, at
}
