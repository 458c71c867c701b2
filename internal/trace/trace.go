// Package trace is the observability layer of the repro: an event-sourced
// recorder for per-packet lifecycle tracing, a latency-decomposition
// reconstructor, a metrics registry, and exporters (Chrome trace-event JSON
// for Perfetto/chrome://tracing, plus a text timeline).
//
// The package is a leaf: it imports nothing from the rest of the module, so
// every layer (sim, hw, am, bench) can emit into it without cycles. Times
// are int64 nanoseconds of virtual time (the same unit as sim.Time).
//
// Tracing is opt-in and free when off: instrumentation sites hold a
// *Recorder that is nil when tracing is disabled and guard every emission
// with a nil check, so the disabled hot path costs one pointer load and
// allocates nothing (enforced by the allocation guard in internal/am's
// tests and, end-to-end, by the golden-results guard: traced-off runs are
// byte-identical).
package trace

import (
	"fmt"
	"sort"
)

// Kind enumerates trace event types. Events come in two flavors: instants
// (a point in virtual time) and span edges (XxxStart/XxxEnd pairs that the
// exporters and the decomposer re-join into intervals).
type Kind uint8

const (
	KindNone Kind = iota

	// Packet lifecycle, in path order. Node is the side the event happens
	// on (source until EvInjectEnd, destination from EvEjectStart).
	EvStaged      // host wrote the packet into a send-FIFO entry
	EvCommitted   // host committed the entry's length-array slot
	EvI860SendSta // adapter i860 began send processing
	EvI860SendEnd // ... and finished
	EvDMAOutSta   // outbound MicroChannel DMA began
	EvDMAOutEnd   // ... and finished
	EvInjectSta   // switch injection-port serialization began
	EvInjectEnd   // ... and finished
	EvEjectSta    // switch ejection-port serialization began
	EvEjectEnd    // ... and finished
	EvI860RecvSta // adapter i860 began receive processing
	EvI860RecvEnd // ... and finished
	EvDMAInSta    // inbound MicroChannel DMA began
	EvDMAInEnd    // ... and finished
	EvFIFOArrive  // packet entered the host receive FIFO (residency start)
	EvPolled      // packet popped from the receive FIFO (residency end)
	EvFIFODrop    // packet lost to receive-FIFO overflow
	EvFault       // an injected fault verdict touched the packet (Arg = action)

	// Protocol / host events.
	EvReqStart     // am.Request entered (before any cost is charged)
	EvReplyStart   // am.Reply entered
	EvPollStart    // am.Poll entered
	EvPollEnd      // am.Poll returned (Arg = packets drained)
	EvHandlerStart // a handler began running (Pkt = triggering packet)
	EvHandlerEnd   // ... and returned
	EvRetransmit   // a saved packet was re-injected (Pkt = new transmission)

	kindMax
)

var kindNames = [...]string{
	KindNone:       "none",
	EvStaged:       "staged",
	EvCommitted:    "committed",
	EvI860SendSta:  "i860-send-start",
	EvI860SendEnd:  "i860-send-end",
	EvDMAOutSta:    "dma-out-start",
	EvDMAOutEnd:    "dma-out-end",
	EvInjectSta:    "inject-start",
	EvInjectEnd:    "inject-end",
	EvEjectSta:     "eject-start",
	EvEjectEnd:     "eject-end",
	EvI860RecvSta:  "i860-recv-start",
	EvI860RecvEnd:  "i860-recv-end",
	EvDMAInSta:     "dma-in-start",
	EvDMAInEnd:     "dma-in-end",
	EvFIFOArrive:   "fifo-arrive",
	EvPolled:       "polled",
	EvFIFODrop:     "fifo-drop",
	EvFault:        "fault",
	EvReqStart:     "req-start",
	EvReplyStart:   "reply-start",
	EvPollStart:    "poll-start",
	EvPollEnd:      "poll-end",
	EvHandlerStart: "handler-start",
	EvHandlerEnd:   "handler-end",
	EvRetransmit:   "retransmit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Event is one trace record. The struct is flat and fixed-size so recording
// is a slice append with no per-event allocation.
type Event struct {
	T    int64 // virtual time, ns
	Kind Kind
	Node int32 // node the event happened on
	Pkt  int64 // packet trace id, 0 when not packet-scoped
	Arg  int64 // kind-specific (wire bytes, drained count, fault action, ...)
	// Class labels the packet's protocol class ("request", "reply",
	// "chunk", ...) on EvStaged, and the handler/op label on protocol
	// events. String assignment copies a header, not the bytes: no
	// allocation.
	Class string
}

// DefaultMaxEvents bounds a Recorder's memory (~48 B/event, so the default
// is ~380 MB worst case; long traced soaks should export and Cut).
const DefaultMaxEvents = 8 << 20

// Recorder accumulates events in emission order. It is used only from the
// single-threaded simulation, so it needs no locking. A nil *Recorder means
// tracing is off; call sites must guard (the compiler inlines the check).
type Recorder struct {
	events  []Event
	nextPkt int64
	max     int

	// Dropped counts events discarded after the MaxEvents cap was hit.
	Dropped int64
}

// New returns a recorder with the default event cap.
func New() *Recorder { return NewWithCap(DefaultMaxEvents) }

// NewWithCap returns a recorder that keeps at most max events.
func NewWithCap(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &Recorder{max: max}
}

// NewPacketID assigns the next packet trace id (ids start at 1; 0 means
// "untraced packet").
func (r *Recorder) NewPacketID() int64 {
	r.nextPkt++
	return r.nextPkt
}

// Emit appends one event. Events need not arrive in time order: hardware
// stages emit a span's start and end together when the job is queued, so a
// start may carry a future timestamp. Exporters sort stably by T.
func (r *Recorder) Emit(t int64, k Kind, node int, pkt, arg int64, class string) {
	if len(r.events) >= r.max {
		r.Dropped++
		return
	}
	r.events = append(r.events, Event{T: t, Kind: k, Node: int32(node), Pkt: pkt, Arg: arg, Class: class})
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Truncated is the error for a recorder that hit its cap: whatever is read
// or written from it lacks the events past it. nil when nothing was dropped.
func (r *Recorder) Truncated() error {
	if r.Dropped == 0 {
		return nil
	}
	return fmt.Errorf("trace truncated: kept %d events, dropped %d past the recorder's cap", len(r.events), r.Dropped)
}

// Events returns the raw event slice in emission order (not a copy; do not
// mutate).
func (r *Recorder) Events() []Event { return r.events }

// Sorted returns a copy of the events stably sorted by timestamp. Emission
// order breaks ties, so the result is deterministic for a deterministic
// simulation.
func (r *Recorder) Sorted() []Event {
	out := append([]Event(nil), r.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Cut discards the first n recorded events (packet ids keep counting, so
// ids stay unique across a Cut — a warmup phase can be cut without id
// reuse).
func (r *Recorder) Cut(n int) {
	r.events = append(r.events[:0], r.events[n:]...)
}

// Fork returns an empty recorder for one run of several that will be
// folded back into r with Join. It keeps at most the events r has room for
// now, which is at least what r will have room for when it is joined.
func (r *Recorder) Fork() *Recorder {
	return &Recorder{max: r.max - len(r.events)}
}

// Join appends f's events to r as though f's run had emitted them into r:
// packet ids are offset by the ids r has already issued, and the events
// past r's cap count as dropped, as do the ones f dropped itself. Joining
// forks in run order leaves r as one recorder shared by the runs in that
// order would be.
func (r *Recorder) Join(f *Recorder) {
	for _, e := range f.events {
		if len(r.events) >= r.max {
			r.Dropped++
			continue
		}
		if e.Pkt != 0 {
			e.Pkt += r.nextPkt
		}
		r.events = append(r.events, e)
	}
	r.nextPkt += f.nextPkt
	r.Dropped += f.Dropped
}
