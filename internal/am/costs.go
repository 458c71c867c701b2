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
var (
	costReqBuild   = hw.US(5.00) // request build + window/retransmit bookkeeping
	costReplyBuild = hw.US(2.55) // reply build (no am_poll, less bookkeeping)
	costPerWord    = hw.US(0.15) // per 32-bit argument word beyond the first
	costPollEmpty  = hw.US(1.30) // polling an empty network
	costPerMsg     = hw.US(1.80) // per received message (FIFO bookkeeping)
	costDispatch   = hw.US(0.20) // handler table dispatch
	costStoreSetup = hw.US(6.00) // per store/get op: header build + bookkeeping
	costBulkPerPkt = hw.US(0.95) // per bulk packet build, excluding copy+flush
	costCtrlBuild  = hw.US(1.00) // explicit ack / nack / probe build
	costGetServe   = hw.US(2.00) // remote-side get request service
	costRawSend    = hw.US(1.45) // raw (protocol-less) packet send build
	costRawRecv    = hw.US(1.30) // raw per-message receive handling
)

// lazyPopBatch is how many receive-FIFO entries are popped per MicroChannel
// access; the paper pops "lazily (after some fixed number of messages
// polled) to reduce the number of microchannel accesses".
const lazyPopBatch = 16

// Keep-alive and fail-stop defaults (overridable through Options).
const (
	// defaultKeepAlivePolls is the number of consecutive empty polls with
	// unacknowledged traffic outstanding before the keep-alive protocol sends
	// a probe ("timeouts are emulated by counting the number of unsuccessful
	// polls" — paper §2.2).
	defaultKeepAlivePolls = 1500
	// defaultBackoffCap bounds the exponential growth of successive probe
	// rounds: round r waits keepAlivePolls << min(r, cap) empty polls.
	defaultBackoffCap = 6
	// defaultDeathThreshold is how many successive probe rounds may elapse
	// with no cumulative-ack progress before the peer is declared dead.
	defaultDeathThreshold = 8
	// maxBackoffShift bounds the shift applied to poll thresholds and RTOs
	// regardless of a caller-supplied BackoffCap, keeping the arithmetic far
	// from overflow.
	maxBackoffShift = 30
)

// Retransmission-timer defaults (Jacobson/Karn estimator bounds); the
// ceiling has no override.
var (
	defaultInitialRTO = hw.US(2000)
	defaultMinRTO     = hw.US(500)
	maxRTO            = hw.US(50000)
)

// Protocol constants from paper §2.2.
const (
	// ChunkBytes is the bulk-transfer chunk size: 36 packets of 224 bytes.
	ChunkBytes = 8064
	// ChunkPackets is the number of packets per full chunk.
	ChunkPackets = ChunkBytes / hw.PacketDataSize
	// WndRequest is the request-channel window in packets: at least two
	// chunks so the 2-outstanding-chunk pipeline never stalls on window.
	WndRequest = 72
	// WndReply is the reply-channel window, slightly larger to accommodate
	// start-up request messages.
	WndReply = 76
)

// Options tune protocol features; the defaults are the paper's design.
// Every switch exists so the ablation benchmarks can price the feature.
type Options struct {
	// PiggybackAcks piggybacks cumulative acks on all outgoing packets
	// (default true). Off forces explicit ack traffic.
	PiggybackAcks bool
	// AckPerChunk acknowledges bulk data once per completed chunk (default
	// true, the paper's design). Off selects the naive alternative the
	// ablation benchmarks price: an explicit acknowledgement after every
	// received packet.
	AckPerChunk bool
	// LazyPop batches receive-FIFO pops (default true). Off pays one
	// MicroChannel access per popped entry.
	LazyPop bool
	// WndRequest/WndReply override the window sizes when nonzero.
	WndRequest, WndReply int
	// KeepAlivePolls overrides (when positive) the empty-poll count that
	// triggers the first keep-alive probe of a round sequence.
	KeepAlivePolls int
	// BackoffCap overrides (when positive) the cap on the exponential
	// poll-threshold growth across successive probe rounds.
	BackoffCap int
	// DeathThreshold overrides the number of successive unanswered probe
	// rounds before a peer is declared dead: positive sets the count,
	// negative disables fail-stop detection entirely, zero keeps the
	// default.
	DeathThreshold int
	// InitialRTO/MinRTO override (when positive) the retransmission timer
	// used to pace backoff rounds before and after RTT samples exist.
	InitialRTO, MinRTO sim.Time
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{PiggybackAcks: true, AckPerChunk: true, LazyPop: true}
}

func (o Options) wndRequest() int {
	if o.WndRequest > 0 {
		return o.WndRequest
	}
	return WndRequest
}

func (o Options) wndReply() int {
	if o.WndReply > 0 {
		return o.WndReply
	}
	return WndReply
}

func (o Options) keepAlivePolls() int {
	if o.KeepAlivePolls > 0 {
		return o.KeepAlivePolls
	}
	return defaultKeepAlivePolls
}

func (o Options) backoffCap() int {
	c := o.BackoffCap
	if c <= 0 {
		c = defaultBackoffCap
	}
	if c > maxBackoffShift {
		c = maxBackoffShift
	}
	return c
}

// deathDisabled reports whether fail-stop detection is switched off
// (DeathThreshold < 0): probe rounds back off forever, no peer is ever
// declared dead.
func (o Options) deathDisabled() bool { return o.DeathThreshold < 0 }

func (o Options) deathThreshold() int {
	if o.DeathThreshold > 0 {
		return o.DeathThreshold
	}
	return defaultDeathThreshold
}

func (o Options) initialRTO() sim.Time {
	if o.InitialRTO > 0 {
		return o.InitialRTO
	}
	return defaultInitialRTO
}

func (o Options) minRTO() sim.Time {
	if o.MinRTO > 0 {
		return o.MinRTO
	}
	return defaultMinRTO
}

func wordsCost(n int) sim.Time {
	if n <= 1 {
		return 0
	}
	return sim.Time(n-1) * costPerWord
}
