package kv

import (
	"bytes"
	"testing"
)

// FuzzOpVector drives the staged vector codec with arbitrary bytes in every
// phase: decoding must never index out of range, never return more ops than
// the destination or the bytes hold, and re-encoding what it decoded must
// reproduce the bytes it consumed.
func FuzzOpVector(f *testing.F) {
	f.Add(uint8(phLock), []byte{})
	f.Add(uint8(phLock), []byte{1, 0, 0, 0, 2, 0, 0, 0})
	f.Add(uint8(phCommit), []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0x80})
	f.Add(uint8(phCommit), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}) // trailing partial record
	f.Add(uint8(phUnlock), bytes.Repeat([]byte{0xFF}, 4*maxBatchOps+4))       // longer than any vector
	f.Add(uint8(phCommit), bytes.Repeat([]byte{0xA5}, stageBytes))
	f.Fuzz(func(t *testing.T, phase uint8, mem []byte) {
		phase &= 3
		var dst [maxBatchOps]wireOp
		ops := decodeOps(dst[:], phase, mem)
		w := opBytes(phase)
		if len(ops) > maxBatchOps || len(ops)*w > len(mem) {
			t.Fatalf("decoded %d ops of %d bytes from %d bytes", len(ops), w, len(mem))
		}
		if len(mem) >= maxBatchOps*w && len(ops) != maxBatchOps || len(mem) < maxBatchOps*w && len(ops) != len(mem)/w {
			t.Fatalf("decoded %d ops from %d bytes at %d bytes per op", len(ops), len(mem), w)
		}
		buf := make([]byte, stageBytes)
		if enc := encodeOps(buf, phase, ops); !bytes.Equal(enc, mem[:len(ops)*w]) {
			t.Fatalf("re-encoding %d ops gave % x, want % x", len(ops), enc, mem[:len(ops)*w])
		}
	})
}

// TestReqIDRoundTrip: every field of a request id survives the wire word.
func TestReqIDRoundTrip(t *testing.T) {
	for _, c := range []struct {
		gen, ti uint32
		sub     int
		phase   uint8
	}{{0, 0, 0, phRead}, {0x3FFF, maxSlots - 1, maxTargets - 1, phUnlock}, {1, 255, 3, phCommit}} {
		gen, ti, sub, phase := splitReqID(reqID(c.gen, c.ti, c.sub, c.phase))
		if gen != c.gen || ti != c.ti || sub != c.sub || phase != c.phase {
			t.Fatalf("reqID(%v) came back as %d %d %d %d", c, gen, ti, sub, phase)
		}
	}
}
