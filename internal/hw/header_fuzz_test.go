package hw

import (
	"fmt"
	"testing"

	"spam/internal/sim"
)

// FuzzHeaderChecksum: a header stamped with WireChecksum over its payload
// fails verification (Csum != WireChecksum(data), the test am's receive
// path applies) after any damage the switch can do to it — the header bit
// flips corruptIn draws and every single-bit flip of the payload — and
// stamping twice stamps the same value. The seeds, which plain go test runs,
// are every AM kind at the payload lengths around the checksum's 8-byte
// folding (empty, tail only, one word, word plus tail, a full packet).
func FuzzHeaderChecksum(f *testing.F) {
	for k := KindRequest; k <= KindRaw; k++ {
		for _, n := range []int{0, 1, 7, 8, 9, PacketDataSize} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(i*31 + int(k))
			}
			f.Add(uint8(k), uint64(k)<<20, uint64(n), uint64(0x9e3779b97f4a7c15), uint8(k), payload, uint64(n))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, w0, w1, w2 uint64, flags uint8, payload []byte, seed uint64) {
		if len(payload) > PacketDataSize {
			payload = payload[:PacketDataSize]
		}
		payload = append([]byte(nil), payload...) // the engine's bytes are not ours to flip
		h := Header{
			Kind: Kind(kind), Ch: int(flags & 1), Seq: w0,
			AckReq: w1, AckRep: w1 >> 9, HasAck: flags&2 != 0,
			H: int(uint8(w2)), Nargs: int(flags >> 2 & 7),
			Args: [4]uint32{uint32(w2), uint32(w2 >> 32), uint32(w1), uint32(w0 >> 32)},
			BK:   flags >> 5, Op: w2 ^ w0, DAddr: Addr{Seg: int(uint8(w1)), Off: int(uint32(w2 >> 16))},
			Total: int(uint32(w0)), ChunkPkts: int(uint8(w0 >> 8)), PktIdx: int(uint8(w1 >> 8)),
			BOff: int(uint32(w1 >> 16)), Final: flags&0x10 != 0, Arg: uint32(w2 >> 24),
			RAddr: Addr{Seg: int(uint8(w2 >> 8)), Off: int(uint32(w0 >> 24))},
			LAddr: Addr{Seg: int(uint8(w0 >> 16)), Off: int(uint32(w1 >> 24))}, NBytes: int(uint32(w2 >> 40)),
		}
		h.Csum = h.WireChecksum(payload)
		if again := h.WireChecksum(payload); again != h.Csum {
			t.Fatalf("stamping is not idempotent: %#x then %#x", h.Csum, again)
		}
		rng := sim.NewRand(seed)
		for i := 0; i < 256; i++ {
			bad := h
			bad.corruptIn(rng)
			if bad.Csum == bad.WireChecksum(payload) {
				t.Fatalf("header damage undetected:\nstamped %+v\ndamaged %+v", h, bad)
			}
		}
		for bit := 0; bit < 8*len(payload); bit++ {
			payload[bit/8] ^= 1 << (bit % 8)
			if h.Csum == h.WireChecksum(payload) {
				t.Fatalf("payload bit %d of %d bytes flipped undetected (header %+v)", bit, len(payload), h)
			}
			payload[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// BenchmarkWireChecksum: the host cost of stamping or verifying one packet,
// at no payload (acks, short messages with no data), one word and a full
// packet. Every packet pays it twice; internal/am's zero-alloc guards
// depend on its 0 allocs/op.
func BenchmarkWireChecksum(b *testing.B) {
	for _, n := range []int{0, 8, PacketDataSize} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			h := Header{Kind: KindChunk, Seq: 77, Op: 3, Total: 1 << 20, ChunkPkts: 36}
			payload := make([]byte, n)
			b.ReportAllocs()
			b.SetBytes(int64(n))
			var sum uint32
			for i := 0; i < b.N; i++ {
				h.PktIdx = i
				sum ^= h.WireChecksum(payload)
			}
			h.Csum = sum // keep the loop's result live
		})
	}
}
