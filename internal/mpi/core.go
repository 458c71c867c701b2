package mpi

import (
	"fmt"

	"spam/internal/hw"
	"spam/internal/mpl"
	"spam/internal/ring"
	"spam/internal/sim"
)

// Wildcards for Recv matching: MPL's, under mpl.Matches's rule.
const (
	AnySource = mpl.AnySource
	AnyTag    = mpl.AnyTag
)

// Status describes a completed receive.
type Status struct {
	Source, Tag, Size int
}

// Request is a nonblocking operation handle, on either Comm type.
type Request struct {
	done   bool
	status Status
	err    error // sticky failure; Wait reports it instead of spinning

	// A send of buf to peer, or a receive into buf from peer (AnySource
	// allowed); tag may be AnyTag on a receive.
	peer, tag int
	buf       []byte
	rdvID     uint32 // a rendezvous send's id (0 for buffered and eager sends)

	// MPI-AM only.
	prefix int // send: bytes already shipped via the hybrid prefix
	slot   int // send: the receiver segment the CTS named; receive: the registration slot data lands in

	// MPI-F only.
	sendT uint64          // send: rendezvous data's ticket for mpl.Endpoint.Injected (0: none)
	recvH *mpl.RecvHandle // receive: rendezvous data arrival
}

// inMsg is a message known to the receiver but not yet matched: a complete
// buffered or eager message (rdvID 0, payload in data), or a rendezvous
// request-to-send awaiting a matching receive.
type inMsg struct {
	src, tag, size int
	rdvID          uint32
	data           []byte // payload or hybrid prefix: MPI-AM's view into its buffered region, MPI-F's library copy

	// MPI-AM only: the buffered extent data sits in, freed once data is
	// copied (freeLen 0: none yet, as for a rendezvous whose hybrid prefix
	// is still in flight).
	freeOff, freeLen int
}

// core is the matching state both Comm types embed: the posted and
// unexpected queues, the collective-tag counter, the rendezvous ids and the
// sends awaiting clear-to-send, and the failure state.
type core struct {
	rank, size int
	nd         *hw.Node

	posted     ring.Ring[*Request] // receives waiting for a matching message, in post order
	unexpected ring.Ring[inMsg]    // messages no posted receive matched, oldest first
	collSeq    int                 // collective sequence number (tag salt)

	nextRdv uint32
	ctsWait map[uint32]*Request // rendezvous sends awaiting clear-to-send, by id

	// peerErrs is sticky per peer, set once when the transport declares the
	// peer dead (only SP AM detects fail-stop; MPL does not). deadline, when
	// nonzero, bounds every blocking call.
	peerErrs []error
	deadline sim.Time
}

func newCore(nd *hw.Node, rank, size int) core {
	return core{rank: rank, size: size, nd: nd, peerErrs: make([]error, size),
		ctsWait: make(map[uint32]*Request)}
}

// holdRdv gives a rendezvous send its id and holds it until the receiver's
// clear-to-send names it.
func (c *core) holdRdv(req *Request) {
	c.nextRdv++
	req.rdvID = c.nextRdv
	c.ctsWait[req.rdvID] = req
}

// takeRdv takes the held send a clear-to-send names.
func (c *core) takeRdv(rdvID uint32) *Request {
	req := c.ctsWait[rdvID]
	if req == nil {
		panic("mpi: clear-to-send for unknown rendezvous")
	}
	delete(c.ctsWait, rdvID)
	return req
}

// Rank returns this process's rank.
func (c *core) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *core) Size() int { return c.size }

// SetDeadline arms an absolute simulated-time deadline on every blocking
// call on this communicator (0 disarms). A call still incomplete when the
// deadline passes returns *Error with ErrTimeout instead of spinning.
func (c *core) SetDeadline(at sim.Time) { c.deadline = at }

// NextCollTag returns the next reserved collective tag.
func (c *core) NextCollTag() int {
	c.collSeq++
	return -(10 + c.collSeq)
}

// newSend is every send's entry: a destination outside [0, Size) is a
// programming error.
func (c *core) newSend(data []byte, dst, tag int) *Request {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("mpi: bad destination rank %d", dst))
	}
	return &Request{peer: dst, tag: tag, buf: data}
}

// newRecv is every receive's entry: a source outside [0, Size) other than
// AnySource is a programming error.
func (c *core) newRecv(buf []byte, src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= c.size) {
		panic(fmt.Sprintf("mpi: bad source rank %d", src))
	}
	return &Request{peer: src, tag: tag, buf: buf}
}

// matchUnexpected takes the oldest unexpected message a receive for (src,
// tag) matches.
func (c *core) matchUnexpected(src, tag int) (inMsg, bool) {
	return c.unexpected.Take(func(m *inMsg) bool { return mpl.Matches(src, tag, m.src, m.tag) })
}

// bind is where a receive meets its message: it records req's status and
// returns where the payload goes, req's buffer or, when the message does not
// fit, a discard buffer of its size. The protocol consumes the message whole
// either way, so the sender completes; Wait reports the truncation once req
// is done.
func (c *core) bind(req *Request, m *inMsg) []byte {
	req.status = Status{Source: m.src, Tag: m.tag, Size: m.size}
	if m.size > len(req.buf) {
		return make([]byte, m.size)
	}
	return req.buf[:m.size]
}

// result is what Wait returns for a done request: its status, and
// ErrTruncate when bind sent its message to the discard buffer.
func (c *core) result(req *Request) (Status, error) {
	if req.status.Size > len(req.buf) {
		return req.status, &Error{Code: ErrTruncate, Rank: c.rank, Peer: req.status.Source}
	}
	return req.status, nil
}

// matchPosted takes the oldest posted receive a message from src with tag
// matches.
func (c *core) matchPosted(src, tag int) *Request {
	r, _ := c.posted.Take(func(r **Request) bool { return mpl.Matches((*r).peer, (*r).tag, src, tag) })
	return r
}

// cancel deregisters a failed request's still-unmatched receive posting.
// Surviving ranks' salted tag streams desynchronize after a failure, so a
// stale posted buffer could otherwise be matched against a later message of
// a different size. A receive already matched to a rendezvous stays
// registered: bind gave it a buffer the whole message fits, and in-flight
// data may still land in it.
func (c *core) cancel(req *Request) {
	c.posted.Take(func(r **Request) bool { return *r == req })
}

// expired decides whether Wait should give up on req: the request itself
// failed, its peer is dead, or the communicator deadline passed. A request
// that gives up keeps the error and is deregistered.
func (c *core) expired(req *Request) error {
	err := req.err
	if err == nil && req.peer >= 0 {
		err = c.peerErrs[req.peer]
	}
	if err == nil && c.deadline > 0 && c.nd.Eng.Now() >= c.deadline {
		err = &Error{Code: ErrTimeout, Rank: c.rank, Peer: req.peer}
	}
	if err != nil {
		req.err = err
		c.cancel(req)
	}
	return err
}

// finalBarrier is Finalize's closing barrier, bounded by budget (0 =
// unbounded). It returns what is left of a positive budget, at least 1.
func (c *core) finalBarrier(p *sim.Proc, pt PT, budget sim.Time) (sim.Time, error) {
	prev := c.deadline
	if budget > 0 {
		c.deadline = c.nd.Eng.Now() + budget
	}
	err := Barrier(p, pt)
	var left sim.Time
	if budget > 0 {
		left = max(c.deadline-c.nd.Eng.Now(), 1)
	}
	c.deadline = prev
	return left, err
}
