package hw

import (
	"hash/crc32"

	"spam/internal/sim"
)

// Kind enumerates the wire packet types of every protocol that rides the
// TB2 model. The hardware does not interpret protocol headers — this enum
// exists so Packet can carry its header by value (no per-packet interface
// boxing) while fault injection can still classify packets and corrupt
// header bits without knowing the protocol layer.
//
// KindNone (the zero value) marks a packet with no protocol header: raw
// hardware tests and zero-value pooled packets. It has no fault class and
// nothing header-corruptible.
type Kind uint8

const (
	KindNone Kind = iota

	// SP Active Messages (internal/am).
	KindRequest // short request, up to 4 words
	KindReply   // short reply, up to 4 words
	KindChunk   // bulk data packet (store data or get response data)
	KindGetReq  // control message asking the remote side to send data
	KindAck     // explicit cumulative acknowledgement
	KindNack    // negative acknowledgement: go-back-N from Seq
	KindProbe   // keep-alive probe: elicits an explicit ack
	KindRaw     // protocol-less packet (raw latency benchmark only)

	// MPL (internal/mpl). MPL has no wire checksum — its headers are never
	// corruptible — and no fault class (fault plans target it by node/time).
	KindMPLData
	KindMPLCredit
)

// Class reports the fault-plan class name of an AM packet kind, or "" for
// kinds fault plans do not target by class (none, MPL).
func (k Kind) Class() string {
	switch k {
	case KindRequest:
		return "request"
	case KindReply:
		return "reply"
	case KindChunk:
		return "chunk"
	case KindGetReq:
		return "getreq"
	case KindAck:
		return "ack"
	case KindNack:
		return "nack"
	case KindProbe:
		return "probe"
	case KindRaw:
		return "raw"
	}
	return ""
}

// amKind reports whether k is an SP AM wire kind — the kinds whose headers
// are checksum-protected and therefore eligible for header corruption.
func (k Kind) amKind() bool { return k >= KindRequest && k <= KindRaw }

// Header is the decoded wire header of one packet, carried by value inside
// Packet (replacing the old Msg interface{} box). The union of the SP AM
// and MPL header fields all fit the 32-byte (AM) / 28-byte (MPL) header
// budgets of the real implementations; HdrBytes on the packet models the
// on-wire size.
//
// MPL reuses the AM field slots: tag in H, message length in Total, packet
// offset in BOff, last-packet flag in Final.
type Header struct {
	Kind Kind
	Ch   int    // AM sequence channel (0 = requests, 1 = replies)
	Seq  uint64 // first sequence unit occupied by this message

	// Piggybacked cumulative acks: count of packets received in order on
	// each channel of the reverse direction.
	AckReq, AckRep uint64
	HasAck         bool

	// Short messages (AM); MPL tag.
	H     int
	Nargs int
	Args  [4]uint32

	// Bulk data packets (AM); MPL reuses Total/BOff/Final.
	BK        uint8  // bulk kind (store data vs get-response data)
	Op        uint64 // bulk operation id, sender-scoped
	DAddr     Addr   // destination of this packet's payload
	Total     int    // total bytes in the whole operation / MPL message
	ChunkPkts int    // packets in this packet's chunk (= its seq span)
	PktIdx    int    // index of this packet within its chunk
	BOff      int    // byte offset of this packet's payload within the op
	Final     bool   // set on packets of the op's last chunk / MPL last pkt
	Arg       uint32 // user argument delivered to the bulk handler

	// Get requests (AM).
	RAddr  Addr // remote (data source) address
	LAddr  Addr // local (data sink) address at the requester
	NBytes int

	// Csum covers every header field above plus the payload bytes (see
	// WireChecksum); it models the adapter's hardware CRC. Stamped at
	// injection (after ack piggybacking), verified before any receive-side
	// processing.
	Csum uint32
}

// castagnoli is the CRC-32C table: hash/crc32 computes that polynomial with
// the CPU's CRC instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mix64 is the splitmix64 finalizer, used to fold header fields into the
// wire checksum.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// WireChecksum hashes every header field and the payload: the header words
// are folded through mix64 and the last word folded is the payload's CRC-32C
// with its length, so every single-bit payload flip changes the result. It
// deliberately covers all fields corruptIn can damage; the computation is
// host-side bookkeeping only (the real CRC is adapter hardware) and charges
// no simulated time.
func (h *Header) WireChecksum(data []byte) uint32 {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	acc := uint64(0x243f6a8885a308d3)
	fold := func(v uint64) { acc = mix64(acc ^ v) }
	fold(uint64(h.Kind)<<56 ^ uint64(h.Ch)<<48 ^ h.Seq)
	fold(h.AckReq<<1 ^ b2u(h.HasAck))
	fold(h.AckRep)
	fold(uint64(uint32(h.H))<<32 ^ uint64(uint32(h.Nargs)))
	fold(uint64(h.Args[0])<<32 ^ uint64(h.Args[1]))
	fold(uint64(h.Args[2])<<32 ^ uint64(h.Args[3]))
	fold(uint64(h.BK)<<56 ^ h.Op)
	fold(uint64(uint32(h.DAddr.Seg))<<32 ^ uint64(uint32(h.DAddr.Off)))
	fold(uint64(uint32(h.Total))<<32 ^ uint64(uint32(h.ChunkPkts)))
	fold(uint64(uint32(h.PktIdx))<<32 ^ uint64(uint32(h.BOff)))
	fold(uint64(h.Arg)<<1 ^ b2u(h.Final))
	fold(uint64(uint32(h.RAddr.Seg))<<32 ^ uint64(uint32(h.RAddr.Off)))
	fold(uint64(uint32(h.LAddr.Seg))<<32 ^ uint64(uint32(h.LAddr.Off)))
	fold(uint64(uint32(h.NBytes)))
	fold(uint64(crc32.Update(0, castagnoli, data)) ^ uint64(len(data))<<56)
	return uint32(acc) ^ uint32(acc>>32)
}

// Span is the number of sequence units the message occupies: chunk packets
// share their chunk's base seq and the chunk spans ChunkPkts units.
func (h *Header) Span() uint64 {
	if h.Kind == KindChunk {
		return uint64(h.ChunkPkts)
	}
	return 1
}

// corruptIn flips one random bit in one of the header fields the checksum
// covers, modeling in-flight header damage. The receive path must discard
// the packet on checksum mismatch before acting on any field. Like the
// payload flip it mutates in place: the in-flight header is the packet's
// own copy (retransmissions rebuild from the sender's saved copy, never
// from the flying packet).
func (h *Header) corruptIn(r *sim.Rand) {
	switch r.Intn(8) {
	case 0:
		h.Seq ^= 1 << uint(r.Intn(32))
	case 1:
		h.H ^= 1 << uint(r.Intn(8))
	case 2:
		h.Args[r.Intn(4)] ^= 1 << uint(r.Intn(32))
	case 3:
		h.DAddr.Off ^= 1 << uint(r.Intn(16))
	case 4:
		h.AckReq ^= 1 << uint(r.Intn(16))
	case 5:
		h.PktIdx ^= 1 << uint(r.Intn(4))
	case 6:
		h.NBytes ^= 1 << uint(r.Intn(12))
	case 7:
		h.Csum ^= 1 << uint(r.Intn(32))
	}
}
