// Package load generates deterministic open-loop traffic for the KV
// service: request arrivals are a Poisson process (exponential
// interarrivals) in simulated time, key popularity is Zipf-distributed (or
// uniform), and the operation mix is drawn per request. Everything is
// driven by the repo's splitmix64 stream (sim.Rand), so a seeded generator
// produces the identical arrival schedule on every run, platform, and
// shard count.
//
// The generator is open-loop on purpose: the next arrival time depends
// only on the seeded RNG, never on when earlier requests completed. A
// closed-loop generator (issue, wait, issue) silently stops offering load
// the moment the service stalls, which hides exactly the tail it should be
// measuring — the coordinated-omission trap. See EXPERIMENTS.md.
package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"spam/internal/sim"
)

// Op is a generated request kind.
type Op uint8

const (
	OpGet Op = iota
	OpPut
	OpDelete
	OpBatch
	numOps
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpBatch:
		return "batch"
	}
	return "?"
}

// Mix is an operation mix in relative weights (they need not sum to 1).
type Mix struct {
	Get, Put, Delete, Batch float64
}

// DefaultMix is a read-heavy serving mix: 80% gets, 15% puts, 3% deletes,
// 2% multi-key batches.
func DefaultMix() Mix { return Mix{Get: 0.80, Put: 0.15, Delete: 0.03, Batch: 0.02} }

// NoBatchMix folds the batch share into puts (used by the chaos scenarios,
// whose accounting wants one reply per request).
func NoBatchMix() Mix { return Mix{Get: 0.80, Put: 0.17, Delete: 0.03} }

// ReadMostlyMix is a YCSB-B-style 95/5 serving mix, the regime client-side
// caching is built for. The write share matters more than it looks: every
// write invalidates the key at every client cache, so with per-key write
// rate w and per-cache read rate r the steady-state hit rate on that key
// is bounded by r/(r+w) no matter how hot it is — at 80/20 over N client
// nodes that bound is (0.8/N)/(0.8/N+0.2), already ~50% for N=4, while at
// 95/5 it stays above 80%.
func ReadMostlyMix() Mix { return Mix{Get: 0.95, Put: 0.04, Delete: 0.007, Batch: 0.003} }

// WriteHeavyMix is a 50/50 read/write serving mix (YCSB-A territory): the
// regime where saturation is decided by write contention on the hot keys,
// which is what commit batching and server-side write combining relieve.
func WriteHeavyMix() Mix { return Mix{Get: 0.50, Put: 0.45, Delete: 0.03, Batch: 0.02} }

// UpdateSkewMix is a 10/90 read/write mix — an ingest/counter workload
// where nearly every request wants the hot keys' latches. It is the
// worst case for deny+retry latching and the best case for combining.
func UpdateSkewMix() Mix { return Mix{Get: 0.10, Put: 0.85, Delete: 0.03, Batch: 0.02} }

// ParseMix resolves a mix name from the command line.
func ParseMix(name string) (Mix, error) {
	switch name {
	case "", "default":
		return DefaultMix(), nil
	case "readmostly":
		return ReadMostlyMix(), nil
	case "nobatch":
		return NoBatchMix(), nil
	case "writeheavy":
		return WriteHeavyMix(), nil
	case "updateskew":
		return UpdateSkewMix(), nil
	}
	return Mix{}, fmt.Errorf("load: unknown mix %q (want default, readmostly, nobatch, writeheavy, or updateskew)", name)
}

// ParseMixes parses a comma-separated mix-name list ("default,writeheavy")
// for sweep tables, returning the names (for row labels) alongside the
// resolved mixes.
func ParseMixes(spec string) ([]string, []Mix, error) {
	var names []string
	var mixes []Mix
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		m, err := ParseMix(f)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, f)
		mixes = append(mixes, m)
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("load: empty mix list %q", spec)
	}
	return names, mixes, nil
}

// ParseSkews parses a comma-separated Zipf skew list ("1.0,1.1,1.3") for
// sweep tables, so skew sweeps are a flag, not a code edit.
func ParseSkews(spec string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		// ParseFloat accepts "inf" and "nan"; Zipf's rejection loop never
		// terminates on either.
		s, err := strconv.ParseFloat(f, 64)
		if err != nil || !(s >= 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("load: bad skew %q", f)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("load: empty skew list %q", spec)
	}
	return out, nil
}

// Gen produces one client node's share of the offered load. Each client
// node owns an independent Gen (forked from the run seed), so nodes
// generate their arrival streams without cross-node coordination — the sum
// of independent Poisson processes is the aggregate Poisson process.
type Gen struct {
	rng      *sim.Rand
	meanGap  float64 // mean interarrival in ns
	keys     uint32
	zipf     *Zipf // nil = uniform keys
	cum      [numOps]float64
	total    float64
	clientLo uint32 // virtual-client id range [clientLo, clientLo+clientN)
	clientN  uint32
}

// NewGen builds a generator: rate is this node's offered load in requests
// per second of simulated time, keys the keyspace size, s the Zipf skew
// (s <= 1 selects uniform popularity), and [clientLo, clientLo+clientN)
// the virtual-client id range this node simulates.
func NewGen(seed uint64, rate float64, keys int, s float64, mix Mix, clientLo, clientN uint32) *Gen {
	if rate <= 0 {
		panic("load: rate must be positive")
	}
	if keys < 1 {
		panic("load: need at least one key")
	}
	g := &Gen{
		rng:      sim.NewRand(seed),
		meanGap:  1e9 / rate,
		keys:     uint32(keys),
		clientLo: clientLo,
		clientN:  clientN,
	}
	if s > 1 {
		g.zipf = NewZipf(g.rng, s, 1, uint64(keys-1))
	}
	g.cum[OpGet] = mix.Get
	g.cum[OpPut] = g.cum[OpGet] + mix.Put
	g.cum[OpDelete] = g.cum[OpPut] + mix.Delete
	g.cum[OpBatch] = g.cum[OpDelete] + mix.Batch
	g.total = g.cum[OpBatch]
	if g.total <= 0 {
		panic("load: empty operation mix")
	}
	return g
}

// NextGap returns the next exponential interarrival gap (at least 1 ns, so
// simulated arrivals are strictly ordered).
func (g *Gen) NextGap() sim.Time {
	u := g.rng.Float64() // in [0,1): 1-u is in (0,1], so the log is finite
	gap := sim.Time(-math.Log(1-u) * g.meanGap)
	if gap < 1 {
		gap = 1
	}
	return gap
}

// NextKey draws a key by popularity rank. Zipf rank r is mapped onto the
// keyspace by a bijective bit-mix so that popular keys are scattered across
// shards instead of clustering in shard 0.
func (g *Gen) NextKey() uint32 {
	if g.zipf == nil {
		return uint32(g.rng.Uint64() % uint64(g.keys))
	}
	return Mix32(uint32(g.zipf.Uint64())) % g.keys
}

// NextOp draws the next operation from the mix.
func (g *Gen) NextOp() Op {
	u := g.rng.Float64() * g.total
	for op := OpGet; op < numOps; op++ {
		if u < g.cum[op] {
			return op
		}
	}
	return OpGet
}

// NextValue draws a payload word.
func (g *Gen) NextValue() uint32 { return uint32(g.rng.Uint64()) }

// NextClient draws the virtual client issuing the request, uniform over
// this node's client range.
func (g *Gen) NextClient() uint32 {
	if g.clientN == 0 {
		return g.clientLo
	}
	return g.clientLo + uint32(g.rng.Uint64()%uint64(g.clientN))
}

// Mix32 is a bijective 32-bit mix (finalizer of MurmurHash3). NextKey
// spreads consecutive Zipf ranks over the whole key space with it, and kv
// spreads keys over shards.
func Mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Zipf samples ranks 0..imax with probability proportional to
// (v+rank)^-s, s > 1, using the rejection-inversion method of Hörmann and
// Derflinger — the same algorithm as math/rand.Zipf, re-grounded on the
// repo's deterministic splitmix64 stream so samples are reproducible
// across runs and platforms.
type Zipf struct {
	r            *sim.Rand
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// NewZipf returns a sampler over [0, imax] with skew s (> 1) and value
// offset v (>= 1). It panics on out-of-range parameters: the caller (Gen)
// gates on s > 1.
func NewZipf(r *sim.Rand, s, v float64, imax uint64) *Zipf {
	if s <= 1 || v < 1 {
		panic("load: Zipf needs s > 1 and v >= 1")
	}
	z := &Zipf{r: r, imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1 - z.q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*z.oneminusQ) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1)))
	return z
}

// Uint64 draws the next Zipf-distributed rank.
func (z *Zipf) Uint64() uint64 {
	for {
		r := z.r.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
