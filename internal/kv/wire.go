package kv

import (
	"encoding/binary"

	"spam/internal/hw"
)

// Wire formats of one write round (the protocol is in the package comment).
// A vector of one op rides a short request, phase by handler:
//
//	lock    [id, owner, key]        -> reply [id, grant bitmap, 0]
//	commit  [id, opid, key, value]  -> reply [id, 0, version]   (a delete omits the value word)
//	unlock  [id, owner, key]        -> reply [id, 0, 0]
//
// A longer one is am_stored as packed little-endian records into the
// transaction's staging block and consumed by the one bulk handler, which
// reads the phase out of id and derives the latch owner from the sender:
//
//	lock, unlock  4 bytes per op:  key
//	commit        12 bytes per op: key, value, opid
//	reply         [id, grant bitmap] (0 outside the lock round: versions do not fit)
const (
	maxBatchOps = 32 // the grant bitmap is one wire word
	stageBytes  = maxBatchOps * 12

	opDel = 1 << 30 // opid flag: the commit deletes the key
)

// wireOp is one decoded op of a round's vector. Lock and unlock rounds carry
// the key only.
type wireOp struct{ key, val, id uint32 }

// opBytes is the staged record width of a phase.
func opBytes(phase uint8) int {
	if phase == phCommit {
		return 12
	}
	return 4
}

// encodeOps packs ops into buf as phase records and returns the bytes used.
// buf must hold len(ops) records; callers cap vectors at maxBatchOps.
func encodeOps(buf []byte, phase uint8, ops []wireOp) []byte {
	w := opBytes(phase)
	for i, op := range ops {
		binary.LittleEndian.PutUint32(buf[i*w:], op.key)
		if phase == phCommit {
			binary.LittleEndian.PutUint32(buf[i*w+4:], op.val)
			binary.LittleEndian.PutUint32(buf[i*w+8:], op.id)
		}
	}
	return buf[:len(ops)*w]
}

// decodeOps unpacks staged bytes into dst and returns the ops decoded. The
// bytes come off the wire: a trailing partial record is ignored and a vector
// longer than dst is cut, so no input indexes out of range.
func decodeOps(dst []wireOp, phase uint8, mem []byte) []wireOp {
	w := opBytes(phase)
	n := len(mem) / w
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		op := wireOp{key: binary.LittleEndian.Uint32(mem[i*w:])}
		if phase == phCommit {
			op.val = binary.LittleEndian.Uint32(mem[i*w+4:])
			op.id = binary.LittleEndian.Uint32(mem[i*w+8:])
		}
		dst[i] = op
	}
	return dst[:n]
}

// Request ids route replies without a lookup: transaction generation (14
// bits), transaction index (12, so slots <= 4096), sub-request (4) and
// phase (2). The phase lets the bulk handler pick the record format and the
// reply handler drop a reply that outlived its round.
func reqID(gen, ti uint32, sub int, phase uint8) uint32 {
	return gen<<18 | ti<<6 | uint32(sub)<<2 | uint32(phase)
}

func splitReqID(id uint32) (gen, ti uint32, sub int, phase uint8) {
	return id >> 18, id >> 6 & 0xFFF, int(id >> 2 & 0xF), uint8(id & 3)
}

// latchOwner names the transaction holding a latch: bit 31 keeps it non-zero,
// then the client node and its transaction index. A client reuses an index
// only after the transaction's unlock round drained or the holder died.
func latchOwner(cli int, ti uint32) uint32 { return 1<<31 | uint32(cli)<<12 | ti }

// opID is the commit dedup word of one operation: the issuing slot and its
// generation, stable across re-drives of the operation in later
// transactions, so a replica that already applied it does not bump the
// version twice. The server pairs it with the sending client.
func opID(si, slotGen uint32, del bool) uint32 {
	id := 1<<31 | slotGen<<12 | si
	if del {
		id |= opDel
	}
	return id
}

// stageAddr is transaction ti's staging block: the same (segment, offset) on
// every server, so one address serves the lock store at the primary and the
// commit stores at every replica.
func (cl *client) stageAddr(ti uint32) hw.Addr {
	return hw.Addr{Seg: cl.svc.stageSeg, Off: (cl.idx*slots + int(ti)) * stageBytes}
}
