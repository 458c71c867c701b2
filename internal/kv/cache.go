// Client-side read cache: the paper's whole program is shaving overhead off
// the communication critical path, and the cheapest round trip is the one
// never issued. Each client node keeps a bounded LRU of
// (key -> value, version, lease expiry) entries filled by GET replies.
//
// Coherence is versioned-lease, two mechanisms layered so that correctness
// never depends on the optional one:
//
//   - Lease (mandatory): an entry is serveable only until sentAt+Lease,
//     where sentAt is the *dispatch* time of the GET that filled it. The
//     server's view of the grant starts at its reply — strictly later — so
//     every staleness bound the server reasons about covers the client's.
//     Staleness is therefore bounded by Lease even if every push is lost.
//   - Invalidation push (optimization): commits push [key, newVer] to the
//     shard's tracked lease holders, shrinking the observed staleness from
//     Lease to roughly one network crossing for hot keys.
//
// Versions are monotone per key and make the protocol race-free without
// clocks: a fill older than what the cache already knows (a GET reply that
// raced a push or a local write completion) is rejected rather than allowed
// to resurrect stale data. NotFound is cached like any other result —
// negative entries carry versions too, since a delete bumps the key.
package kv

import "spam/internal/sim"

// Cache lookup outcomes.
const (
	lkMiss  uint8 = iota // not present
	lkStale              // present but invalidated or past its lease
	lkHit                // serveable
)

// cacheEnt is one cached key. prev/next are LRU links (indices into the
// arena, -1 = none); the entry array never grows after construction.
type cacheEnt struct {
	key    uint32
	val    uint32
	ver    uint32
	status uint8 // StatusOK or StatusNotFound
	valid  bool  // serveable: filled and not invalidated since
	exp    sim.Time
	prev   int32
	next   int32
}

// readCache is a bounded LRU over a preallocated entry arena. The map and
// arena are sized at construction, so steady state performs no allocation
// (the service-wide zero-alloc discipline, see TestKVServerAllocs).
type readCache struct {
	ents  []cacheEnt
	idx   map[uint32]int32 // key -> arena index
	head  int32            // most recently used
	tail  int32            // least recently used
	n     int              // entries in use (arena fills before eviction)
	lease sim.Time
}

func newReadCache(capacity int, lease sim.Time) *readCache {
	return &readCache{
		ents:  make([]cacheEnt, capacity),
		idx:   make(map[uint32]int32, capacity),
		head:  -1,
		tail:  -1,
		lease: lease,
	}
}

func (c *readCache) unlink(i int32) {
	e := &c.ents[i]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (c *readCache) pushFront(i int32) {
	e := &c.ents[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *readCache) touch(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// lookup classifies key: lkHit (entry serveable under its lease — touched
// MRU), lkStale (present but invalidated or expired), or lkMiss. The
// returned entry is valid for lkHit and lkStale.
func (c *readCache) lookup(key uint32, now sim.Time) (*cacheEnt, uint8) {
	i, ok := c.idx[key]
	if !ok {
		return nil, lkMiss
	}
	e := &c.ents[i]
	if !e.valid || now >= e.exp {
		return e, lkStale
	}
	c.touch(i)
	return e, lkHit
}

// fill installs a GET result. sentAt is the dispatch time of the GET that
// produced it, which starts the lease clock at the earliest moment the
// result could have been read server-side. A fill whose version is below
// the entry's floor (the reply raced an invalidation or a newer fill) is
// rejected. Reports whether the fill took and whether an LRU victim was
// evicted to make room.
func (c *readCache) fill(key, val, ver uint32, status uint8, sentAt sim.Time) (ok, evicted bool) {
	if i, have := c.idx[key]; have {
		e := &c.ents[i]
		if ver < e.ver {
			return false, false
		}
		e.val, e.ver, e.status = val, ver, status
		e.valid, e.exp = true, sentAt+c.lease
		c.touch(i)
		return true, false
	}
	var i int32
	if c.n < len(c.ents) {
		i = int32(c.n)
		c.n++
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.idx, c.ents[i].key)
		evicted = true
	}
	c.ents[i] = cacheEnt{key: key, val: val, ver: ver, status: status,
		valid: true, exp: sentAt + c.lease, prev: -1, next: -1}
	c.idx[key] = i
	c.pushFront(i)
	return true, evicted
}

// invalidate raises the entry's version floor and drops serveability when
// ver is newer than what is cached. An entry already at or past ver
// reflects that commit (or a later one) and stays valid; the raised floor
// survives so a slower GET reply carrying the old value cannot resurrect
// it (see fill). Used for both pushed invalidations and the client's own
// write completions.
func (c *readCache) invalidate(key, ver uint32) {
	i, ok := c.idx[key]
	if !ok {
		return
	}
	if e := &c.ents[i]; ver > e.ver {
		e.ver = ver
		e.valid = false
	}
}

// drop marks key unserveable without learning a version — the completion
// of a staged commit vector, whose one-word reply carries no per-key
// versions. The entry's version floor is untouched (we know nothing new),
// so a fetch reply already in the air may still re-cache briefly; the
// commit's invalidation push — sent to the writer too for exactly this
// case — or the lease bound cleans that up.
func (c *readCache) drop(key uint32) {
	if i, ok := c.idx[key]; ok {
		c.ents[i].valid = false
	}
}
