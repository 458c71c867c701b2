package am

import "spam/internal/hw"

// msg is the decoded form of an SP AM packet header: hw.Header itself,
// carried by value inside hw.Packet. This file fixes the AM-side
// vocabulary: kind constants, channel indices, and the wire-size helpers.
// The checksum, sequence-span, fault-class, and header-corruption logic
// live on hw.Header (internal/hw/header.go).
type msg = hw.Header

// AM wire packet kinds (aliases of the hw-level kind space).
const (
	kRequest = hw.KindRequest // short request, up to 4 words
	kReply   = hw.KindReply   // short reply, up to 4 words
	kChunk   = hw.KindChunk   // bulk data packet (store or get response data)
	kGetReq  = hw.KindGetReq  // control message asking the remote side to send data
	kAck     = hw.KindAck     // explicit cumulative acknowledgement
	kNack    = hw.KindNack    // negative acknowledgement: go-back-N from Seq
	kProbe   = hw.KindProbe   // keep-alive probe: elicits an explicit ack
	kRaw     = hw.KindRaw     // protocol-less packet (raw latency benchmark only)
)

// Channel indices: requests and replies travel in separate sequence spaces
// with separate windows so replies can never be blocked behind request
// congestion (paper §2.2).
const (
	chReq = 0
	chRep = 1
)

// Bulk kinds distinguish why a chunk packet is in flight.
const (
	bkStore uint8 = iota // am_store / am_store_async data
	bkGet                // data flowing back for an am_get
)

// shortWireBytes is the wire size of a short message with n argument words.
func shortWireBytes(n int) int { return hw.PacketHeaderSize + 4*n }
