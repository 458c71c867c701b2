package hw

import (
	"spam/internal/ring"
	"spam/internal/sim"
	"spam/internal/trace"
)

// Packet is one switch packet: it occupies a single send-FIFO entry and
// travels the fabric as WireBytes() bytes. The communication layer's
// message header rides by value in Hdr (opaque to the hardware beyond its
// Kind); the payload bytes, when the packet moves user data, live in the
// packet's own entry and are read through Data. The host wrote them there
// at PushSend (paper §2.1: the TB2 DMAs the FIFO entry, not the user's
// buffer), so no packet aliases a sender's buffer or another packet.
//
// Packets are recycled through the cluster's PacketPool (see pool.go for
// the ownership discipline); the zero value is a valid unpooled packet.
type Packet struct {
	Src, Dst int
	// HdrBytes is the protocol header length inside the FIFO entry
	// (typically PacketHeaderSize); dataLen is the payload length. The
	// wire size is their sum — the adapter transfers only the bytes named
	// in the length array, not the whole 256-byte entry.
	HdrBytes int
	dataLen  int
	entry    [FIFOEntryBytes]byte
	Hdr      Header

	// TraceID is the packet's trace identity, assigned at PushSend when a
	// recorder is attached (0 = untraced). Duplicates and corrupt copies
	// keep the original's id, so a trace shows their shared lineage.
	TraceID int64

	// inPool guards against double Put.
	inPool bool
}

// Data returns the payload bytes in the packet's entry. The slice is valid
// until the packet goes back to its pool.
func (p *Packet) Data() []byte { return p.entry[:p.dataLen] }

// WireBytes reports how many bytes this packet occupies on the MicroChannel
// and the switch links.
func (p *Packet) WireBytes() int {
	n := p.HdrBytes + p.dataLen
	if n <= 0 {
		n = 1
	}
	if n > FIFOEntryBytes {
		panic("hw: packet exceeds FIFO entry size")
	}
	return n
}

// Class reports the packet's protocol class ("request", "chunk", "ack",
// ...), or "" when its kind has none. Fault plans target packets by class
// without the hardware layer knowing the protocol.
func (p *Packet) Class() string { return p.Hdr.Kind.Class() }

// FaultAction is what an injected fault does to one packet at the fabric.
type FaultAction uint8

const (
	// ActDeliver passes the packet through untouched (the zero Verdict).
	ActDeliver FaultAction = iota
	// ActDrop loses the packet.
	ActDrop
	// ActDuplicate delivers the packet twice.
	ActDuplicate
	// ActDelay holds the packet for Verdict.Delay before injecting it,
	// letting later packets overtake it (reordering, degraded links).
	ActDelay
	// ActCorrupt flips bits in the packet's payload or header before
	// delivery; the protocol layer's checksum is expected to catch it.
	ActCorrupt
)

func (a FaultAction) String() string {
	switch a {
	case ActDeliver:
		return "deliver"
	case ActDrop:
		return "drop"
	case ActDuplicate:
		return "duplicate"
	case ActDelay:
		return "delay"
	case ActCorrupt:
		return "corrupt"
	}
	return "?"
}

// Verdict is a fault injector's decision about one packet. The zero value
// delivers the packet untouched.
type Verdict struct {
	Action FaultAction
	Delay  sim.Time // extra latency for ActDelay
}

// FaultFunc lets tests and chaos harnesses inject faults: it is consulted
// once per packet at the fabric and returns a verdict. The real switch is
// effectively lossless (the paper optimizes for that), so production runs
// leave it nil; internal/faults compiles declarative fault plans into one.
type FaultFunc func(pkt *Packet) Verdict

// DropIf adapts a boolean drop predicate to a FaultFunc — the historical
// drop-only fault interface most flow-control tests use.
func DropIf(pred func(*Packet) bool) FaultFunc {
	return func(pkt *Packet) Verdict {
		if pred(pkt) {
			return Verdict{Action: ActDrop}
		}
		return Verdict{}
	}
}

// FaultStats counts applied fault verdicts by kind.
type FaultStats struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Corrupted  int64
}

// Total is the number of packets a fault verdict touched.
func (f FaultStats) Total() int64 {
	return f.Dropped + f.Duplicated + f.Delayed + f.Corrupted
}

// swPort is one node's attachment to the fabric: injection and ejection
// servers plus the rings that carry in-flight packets between pipeline
// stages. The rings replace the old per-packet closures — each stage's
// completion callback is allocated once at construction and finds its
// packet at the head of the stage's ring (valid because sim.Server
// completions fire in submission order).
type swPort struct {
	in, out *sim.Server

	injQ ring.Ring[*Packet] // serializing at the injection port
	fabQ ring.Ring[*Packet] // traversing the fabric latency
	ejQ  ring.Ring[*Packet] // serializing at the ejection port

	injectCB, fabricCB, ejectCB func()
}

// Switch models the SP high-performance switch as an input-queued,
// output-queued fabric: each node has an injection port and an ejection
// port, both serialized at LinkBPS, separated by the fabric latency. The
// four physical routes per node pair are not modeled individually — the
// paper's protocols never exploit them (delivery is kept in order) — so the
// fabric is contention-free between distinct (src,dst) port pairs.
type Switch struct {
	eng   *sim.Engine
	p     SwitchParams
	pool  *PacketPool
	ports []swPort
	deliv []func(*Packet)
	Fault FaultFunc
	Sent  int64
	// Faults counts applied fault verdicts; all zero when Fault is nil.
	Faults FaultStats
	// chaosRng picks corruption bit positions. Created at construction
	// (fixed seed, drawn from only on corrupt verdicts) so the corruption
	// path does no lazy setup.
	chaosRng *sim.Rand
}

const chaosSeed = 0x5eedc0de

// NewSwitch builds an n-port fabric on eng that recycles the packets it
// discards through pool.
func NewSwitch(eng *sim.Engine, n int, p SwitchParams, pool *PacketPool) *Switch {
	s := &Switch{eng: eng, p: p, pool: pool, chaosRng: sim.NewRand(chaosSeed)}
	s.ports = make([]swPort, n)
	s.deliv = make([]func(*Packet), n)
	for i := 0; i < n; i++ {
		pt := &s.ports[i]
		pt.in = sim.NewServer(eng)
		pt.out = sim.NewServer(eng)
		pt.injectCB = func() { s.injectDone(pt) }
		pt.fabricCB = func() { s.eject(pt.fabQ.Pop()) }
		pt.ejectCB = func() { s.ejectDone(pt) }
	}
	return s
}

// Attach registers the delivery callback for a node's ejection port (called
// by the node's adapter).
func (s *Switch) Attach(node int, deliver func(*Packet)) {
	s.deliv[node] = deliver
}

func (s *Switch) xferTime(bytes int) sim.Time {
	return sim.Time(float64(bytes) / s.p.LinkBPS * 1e9)
}

// Send injects pkt at the source port; it will pop out of the destination
// adapter's delivery callback after injection serialization, fabric latency,
// and ejection serialization. Loopback (src == dst) skips the fabric but
// still pays the ejection port, matching the adapter's self-send path.
func (s *Switch) Send(pkt *Packet) {
	s.Sent++
	if s.Fault != nil {
		v := s.Fault(pkt)
		if v.Action != ActDeliver {
			if rec := s.eng.Tracer(); rec != nil {
				rec.Emit(int64(s.eng.Now()), trace.EvFault, pkt.Src, pkt.TraceID,
					int64(v.Action), v.Action.String())
			}
		}
		switch v.Action {
		case ActDrop:
			s.Faults.Dropped++
			s.pool.Put(pkt)
			return
		case ActDuplicate:
			s.Faults.Duplicated++
			dup := s.pool.Get()
			*dup = *pkt
			s.route(dup)
		case ActDelay:
			s.Faults.Delayed++
			s.eng.After(v.Delay, func() { s.route(pkt) })
			return
		case ActCorrupt:
			s.Faults.Corrupted++
			if !s.corruptPacket(pkt) {
				s.pool.Put(pkt) // nothing corruptible: the packet is unusable
				return
			}
		}
	}
	s.route(pkt)
}

// route moves the packet through injection port, fabric, and ejection port.
func (s *Switch) route(pkt *Packet) {
	if pkt.Src == pkt.Dst {
		s.eject(pkt)
		return
	}
	pt := &s.ports[pkt.Src]
	pt.injQ.Push(pkt)
	sta := pt.in.IdleAt()
	end := pt.in.Submit(s.xferTime(pkt.WireBytes()), pt.injectCB)
	if rec := s.eng.Tracer(); rec != nil && pkt.TraceID != 0 {
		rec.Emit(int64(sta), trace.EvInjectSta, pkt.Src, pkt.TraceID, 0, "")
		rec.Emit(int64(end), trace.EvInjectEnd, pkt.Src, pkt.TraceID, 0, "")
	}
}

// lane maps a (src, dst) node pair to its fabric-hop ordering lane (src
// major, dst minor, self pair skipped): the last tie-break component of a
// delivery's ordering key (see sim.Engine.AfterKeyed).
func (s *Switch) lane(src, dst int) uint64 {
	if dst > src {
		dst--
	}
	return uint64(src*(len(s.ports)-1) + dst)
}

// injectDone fires when the injection port finishes serializing its oldest
// packet: the packet enters the fabric for the (constant) switch latency.
// Constant latency plus the keyed order keeps fabQ in arrival order (one
// source's hops never share a timestamp — injection serializes them). The
// hop is keyed by the pair's lane, so deliveries that tie with local events
// or with hops from other sources are ordered by the traffic, not by which
// sender's event popped first.
func (s *Switch) injectDone(pt *swPort) {
	pkt := pt.injQ.Pop()
	pt.fabQ.Push(pkt)
	n := len(s.ports)
	s.eng.AfterKeyed(s.p.Latency, s.lane(pkt.Src, pkt.Dst), uint64(n*(n-1)), pt.fabricCB)
}

// eject serializes the packet at its destination's ejection port.
func (s *Switch) eject(pkt *Packet) {
	pt := &s.ports[pkt.Dst]
	pt.ejQ.Push(pkt)
	sta := pt.out.IdleAt()
	end := pt.out.Submit(s.xferTime(pkt.WireBytes()), pt.ejectCB)
	if rec := s.eng.Tracer(); rec != nil && pkt.TraceID != 0 {
		rec.Emit(int64(sta), trace.EvEjectSta, pkt.Dst, pkt.TraceID, 0, "")
		rec.Emit(int64(end), trace.EvEjectEnd, pkt.Dst, pkt.TraceID, 0, "")
	}
}

func (s *Switch) ejectDone(pt *swPort) {
	pkt := pt.ejQ.Pop()
	s.deliv[pkt.Dst](pkt)
}

// corruptPacket damages pkt in flight: a bit flipped in the payload in
// the packet's own entry, or — when the payload is absent or the coin
// lands that way — a bit flipped in the header copy the packet carries
// (AM kinds only; their checksum catches it). Both live in the packet, so
// neither a sender's buffer nor a retransmission source is touched.
// Returns false when the packet has nothing corruptible to flip.
func (s *Switch) corruptPacket(pkt *Packet) bool {
	rng := s.chaosRng
	hasHdr := pkt.Hdr.Kind.amKind()
	if hasHdr && (pkt.dataLen == 0 || rng.Intn(4) == 0) {
		pkt.Hdr.corruptIn(rng)
		return true
	}
	if pkt.dataLen > 0 {
		pkt.entry[rng.Intn(pkt.dataLen)] ^= 1 << uint(rng.Intn(8))
		return true
	}
	return false
}

// Util returns the busy fractions of a node's injection and ejection ports
// up to the current time (diagnostics for bandwidth experiments): service
// performed, not service queued, so a reading taken mid-backlog stays <= 1.
func (s *Switch) Util(node int) (in, out float64) {
	now := float64(s.eng.Now())
	if now == 0 {
		return 0, 0
	}
	return float64(s.ports[node].in.Served()) / now, float64(s.ports[node].out.Served()) / now
}
