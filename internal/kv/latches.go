package kv

import "spam/internal/sim"

// keyMeta is the per-key coherence record. It lives beside the store (not
// inside it) so the version survives deletes — a key deleted and re-put
// must keep climbing, or a cache could mistake the rebirth for the state
// it already has.
type keyMeta struct {
	ver    uint32   // monotone commit version (0 = never written)
	lastOp uint64   // dedup id of the last applied commit (see server.bump)
	verAt  sim.Time // local apply time of ver (staleness oracle; replicas
	// apply at different times, so verAt is never compared across them)
}

// holderSet tracks the clients holding an unexpired read lease on a key at
// this replica. It is deliberately tiny: a fixed inline array, no heap.
// When it fills, further holders are simply not tracked — their caches
// fall back to plain lease expiry, which is always sufficient.
type holderSet struct {
	n   uint8
	cl  [holderMax]uint16
	exp [holderMax]sim.Time
}

// shard is one keyspace partition hosted by a server: its committed store,
// the latch table guarding in-progress transactions, the per-key version
// metadata, and the read-lease holder sets. All maps are pre-sized at
// construction so the steady-state handler path never grows them (the
// zero-allocation discipline of the packet path extends to the service).
type shard struct {
	store   map[uint32]uint32
	latch   map[uint32]uint32 // key -> owning txn (never 0; txns set bit 31)
	meta    map[uint32]keyMeta
	holders map[uint32]holderSet
}

func newShard(storeCap int) *shard {
	return &shard{
		store:   make(map[uint32]uint32, storeCap),
		latch:   make(map[uint32]uint32, 128),
		meta:    make(map[uint32]keyMeta, storeCap),
		holders: make(map[uint32]holderSet, storeCap),
	}
}

// tryLock latches key for txn. Re-granting to the current owner is
// idempotent (a retried lock request must not deadlock its own txn).
func (s *shard) tryLock(key, txn uint32) bool {
	if owner, held := s.latch[key]; held {
		return owner == txn
	}
	s.latch[key] = txn
	return true
}

// unlock releases key if txn holds it (stale unlocks are no-ops).
func (s *shard) unlock(key, txn uint32) {
	if s.latch[key] == txn {
		delete(s.latch, key)
	}
}
