package am

import (
	"spam/internal/hw"
	"spam/internal/sim"
)

// Calibrated host-side software costs of SP AM (paper §2.3–2.5, Table 2).
// The decomposition mirrors the paper's: a request costs its build time plus
// the cache flush of the FIFO entry, one MicroChannel access for the length
// array, and the poll performed before returning; a reply skips the poll and
// has less flow-control bookkeeping. Calibration tests in calib_test.go pin
// the sums at the published figures:
//
//	am_request_1  7.7 us   = build 5.00 + flush 0.45 + MC 1.00 + empty poll 1.30
//	am_reply_1    4.0 us   = build 2.55 + flush 0.45 + MC 1.00
//	poll (empty)  1.3 us
//	per message  +1.8 us
const (
	costReqBuild   = 5000 * hw.Nanosecond // request build + window/retransmit bookkeeping
	costReplyBuild = 2550 * hw.Nanosecond // reply build (no am_poll, less bookkeeping)
	costPerWord    = 150 * hw.Nanosecond  // per 32-bit argument word beyond the first
	costPollEmpty  = 1300 * hw.Nanosecond // polling an empty network
	costPerMsg     = 1800 * hw.Nanosecond // per received message (FIFO bookkeeping)
	costDispatch   = 200 * hw.Nanosecond  // handler table dispatch
	costStoreSetup = 6000 * hw.Nanosecond // per store/get op: header build + bookkeeping
	costBulkPerPkt = 950 * hw.Nanosecond  // per bulk packet build, excluding copy+flush
	costCtrlBuild  = 1000 * hw.Nanosecond // explicit ack / nack / probe build
	costGetServe   = 2000 * hw.Nanosecond // remote-side get request service
	costRawSend    = 1450 * hw.Nanosecond // raw (protocol-less) packet send build
	costRawRecv    = 1300 * hw.Nanosecond // raw per-message receive handling
)

// lazyPopBatch is how many receive-FIFO entries are popped per MicroChannel
// access; the paper pops "lazily (after some fixed number of messages
// polled) to reduce the number of microchannel accesses".
const lazyPopBatch = 16

// Retransmission-timer bounds (Jacobson/Karn estimator): the RTO before the
// first Karn-valid sample, and the clamp applied to the estimate after it.
const (
	initialRTO = 2 * hw.Millisecond
	minRTO     = 500 * hw.Microsecond
	maxRTO     = 50 * hw.Millisecond
)

// Protocol constants from paper §2.2.
const (
	// ChunkBytes is the bulk-transfer chunk size: 36 packets of 224 bytes.
	ChunkBytes = 8064
	// WndRequest is the request-channel window in packets: at least two
	// chunks so the 2-outstanding-chunk pipeline never stalls on window.
	WndRequest = 72
	// WndReply is the reply-channel window, slightly larger to accommodate
	// start-up request messages.
	WndReply = 76
)

// Options are the protocol settings a System runs with; every field holds
// the value in use, and DefaultOptions holds the paper's. A setting is a
// field only because some caller runs a value other than the paper's.
type Options struct {
	// PiggybackAcks piggybacks cumulative acks on all outgoing packets.
	// Off forces explicit ack traffic (the ablation table prices it).
	PiggybackAcks bool
	// AckPerChunk acknowledges bulk data once per completed chunk. Off
	// sends an explicit acknowledgement after every received packet (the
	// ablation table prices it).
	AckPerChunk bool
	// LazyPop batches receive-FIFO pops. Off pays one MicroChannel access
	// per popped entry (the ablation table prices it).
	LazyPop bool
	// WndRequest/WndReply are the request and reply channel windows in
	// packets (the ablation table sweeps them).
	WndRequest, WndReply int
	// KeepAlivePolls is the number of consecutive empty polls with
	// unacknowledged traffic outstanding before the first keep-alive probe
	// of a round sequence ("timeouts are emulated by counting the number
	// of unsuccessful polls" — paper §2.2). kv's serving ladder shortens it.
	KeepAlivePolls int
	// BackoffCap bounds the exponential growth of successive probe rounds:
	// round r waits KeepAlivePolls << min(r, BackoffCap) empty polls and at
	// least RTO << min(r, BackoffCap). kv's serving ladder lowers it.
	BackoffCap int
	// DeathThreshold is how many successive probe rounds may elapse with
	// no cumulative-ack progress before the peer is declared dead. kv's
	// serving ladder lowers it.
	DeathThreshold int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		PiggybackAcks:  true,
		AckPerChunk:    true,
		LazyPop:        true,
		WndRequest:     WndRequest,
		WndReply:       WndReply,
		KeepAlivePolls: 1500,
		BackoffCap:     6,
		DeathThreshold: 8,
	}
}

func wordsCost(n int) sim.Time {
	if n <= 1 {
		return 0
	}
	return sim.Time(n-1) * costPerWord
}
