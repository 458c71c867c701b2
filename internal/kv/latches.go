package kv

import "spam/internal/sim"

// record is one replica's state of one key: its committed value, the latch
// guarding in-progress transactions, the coherence metadata and the
// read-lease holders. The Service keeps every replica's records in one table
// indexed by (key, replica), sized once at construction, so a handler reaches
// its record by index: no hashing, no growth, and no heap allocation on the
// handler path (the zero-allocation discipline of the packet path extends to
// the service). Membership is a field: a key is stored while present is set,
// versioned once ver > 0, latched while owner != 0, and has tracked lease
// holders while n > 0. The fields are ordered so that a record packs into 72
// bytes.
type record struct {
	// Coherence metadata. It survives deletes — a key deleted and re-put must
	// keep climbing, or a cache could mistake the rebirth for the state it
	// already has.
	lastOp uint64   // dedup id of the last applied commit (see server.bump)
	verAt  sim.Time // local apply time of ver (staleness oracle; replicas
	// apply at different times, so verAt is never compared across them)

	// The clients holding an unexpired read lease on the key at this replica,
	// deliberately tiny: a fixed inline array. When it fills, further holders
	// are simply not tracked — their caches fall back to plain lease expiry,
	// which is always sufficient.
	exp [holderMax]sim.Time
	cl  [holderMax]uint16

	ver     uint32 // monotone commit version (0 = never written)
	val     uint32 // committed value; 0 while absent (a NotFound reply carries 0)
	owner   uint32 // latch: owning txn, 0 = free (txns set bit 31)
	n       uint8  // tracked lease holders
	present bool   // the key holds a committed value
}

// tryLock latches the key for txn. Re-granting to the current owner is
// idempotent (a retried lock request must not deadlock its own txn).
func (r *record) tryLock(txn uint32) bool {
	if r.owner != 0 {
		return r.owner == txn
	}
	r.owner = txn
	return true
}

// unlock releases the key if txn holds it (stale unlocks are no-ops).
func (r *record) unlock(txn uint32) {
	if r.owner == txn {
		r.owner = 0
	}
}
