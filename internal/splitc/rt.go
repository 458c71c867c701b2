package splitc

import (
	"fmt"

	"spam/internal/sim"
)

// GlobalPtr names memory anywhere in the machine: a node and a byte offset
// into that node's global segment.
type GlobalPtr struct {
	Node int
	Off  int
}

// Control-message kinds (packed into the Ctl word a).
const (
	ctlUp uint64 = iota + 1
	ctlDown
)

// RT is one process's Split-C runtime state: its rank, the node count, its
// global segment, and what its transport reports arriving.
type RT struct {
	T Transport

	// Err is the first permanent transport failure this process observed (a
	// peer declared dead). It is sticky: once set, every blocking runtime
	// call returns it immediately instead of spinning on progress that can
	// no longer happen.
	Err error

	id, n int
	mem   []byte // this node's global segment

	outstanding int   // split-phase ops issued and not yet completed
	storesSent  int64 // store payload bytes this node has issued
	landed      int64 // store payload bytes deposited in mem

	gen    uint32 // collective generation counter
	upVal  map[uint32]uint64
	upCnt  map[uint32]int
	downOK map[uint32]uint64

	// CommTime accumulates virtual time spent inside communication
	// operations (including synchronization waits); the benchmarks report
	// total − comm as computation time, the paper's Figure-4 split.
	CommTime sim.Time
}

// NewRT is the runtime of rank id of n with global segment mem; the
// platform calls it for each node, then sets T to a transport that serves
// it.
func NewRT(id, n int, mem []byte) *RT {
	return &RT{
		id:     id,
		n:      n,
		mem:    mem,
		upVal:  make(map[uint32]uint64),
		upCnt:  make(map[uint32]int),
		downOK: make(map[uint32]uint64),
	}
}

// ID is this process's rank.
func (rt *RT) ID() int { return rt.id }

// N is the number of processes.
func (rt *RT) N() int { return rt.n }

// Mem returns this node's global segment.
func (rt *RT) Mem() []byte { return rt.mem }

// GetDone records that one of this process's gets has landed; the
// transport calls it.
func (rt *RT) GetDone() { rt.outstanding-- }

// Landed records n store payload bytes deposited in this node's segment;
// the transport calls it.
func (rt *RT) Landed(n int) { rt.landed += int64(n) }

// check panics unless node is a rank and [off, off+n) lies inside a
// segment. Every platform gives each node an equal segment, so this node's
// length bounds every node's.
func (rt *RT) check(node, off, n int) {
	if node < 0 || node >= rt.n || off < 0 || n < 0 || off+n > len(rt.mem) {
		panic(fmt.Sprintf("splitc: %d bytes at {Node: %d, Off: %d} are outside %d nodes of %d-byte segments",
			n, node, off, rt.n, len(rt.mem)))
	}
}

// Compute charges local computation (machine-scaled).
func (rt *RT) Compute(p *sim.Proc, d sim.Time) { rt.T.Compute(p, d) }

// Poll services the network once (counted as communication time).
func (rt *RT) Poll(p *sim.Proc) {
	t0 := p.Now()
	rt.T.Poll(p)
	rt.CommTime += p.Now() - t0
}

// GetAsync issues a split-phase read of n bytes from gp into the local
// segment at loff; complete after Sync.
func (rt *RT) GetAsync(p *sim.Proc, gp GlobalPtr, loff, n int) {
	rt.check(gp.Node, gp.Off, n)
	rt.check(rt.id, loff, n)
	t0 := p.Now()
	rt.outstanding++
	rt.T.Get(p, gp.Node, gp.Off, loff, n)
	rt.CommTime += p.Now() - t0
}

// failed checks for a permanent transport failure, latching it into rt.Err.
// Blocking loops call it each spin so a peer death breaks the wait.
func (rt *RT) failed() bool {
	if rt.Err != nil {
		return true
	}
	if err := rt.T.Err(); err != nil {
		rt.Err = err
		return true
	}
	return false
}

// Sync blocks until every split-phase operation this process issued has
// completed (Split-C's sync()), or returns the transport failure that makes
// completion impossible.
func (rt *RT) Sync(p *sim.Proc) error {
	t0 := p.Now()
	for rt.outstanding > 0 && !rt.failed() {
		rt.T.PollWait(p)
	}
	rt.CommTime += p.Now() - t0
	return rt.Err
}

// Store issues Split-C's one-way store: no sender-side completion; global
// completion is established by AllStoreSync.
func (rt *RT) Store(p *sim.Proc, gp GlobalPtr, data []byte) {
	rt.check(gp.Node, gp.Off, len(data))
	t0 := p.Now()
	rt.storesSent += int64(len(data))
	rt.T.Store(p, gp.Node, gp.Off, data)
	rt.CommTime += p.Now() - t0
}

// Read performs a blocking remote read of n bytes from gp into the local
// segment at loff.
func (rt *RT) Read(p *sim.Proc, gp GlobalPtr, loff, n int) error {
	rt.GetAsync(p, gp, loff, n)
	return rt.Sync(p)
}

// Control takes one control message, the collective tree's: word a packs
// (kind, gen); word b carries the value. The transport calls it.
func (rt *RT) Control(a, b uint64) {
	kind := a & 0xff
	gen := uint32(a >> 8 & 0xffffffff)
	switch kind {
	case ctlUp:
		rt.upVal[gen] += b
		rt.upCnt[gen]++
	case ctlDown:
		rt.downOK[gen] = b
	}
}

func packCtl(kind uint64, gen uint32) uint64 {
	return kind | uint64(gen)<<8
}

func (rt *RT) children(id int) []int {
	var cs []int
	if c := 2*id + 1; c < rt.N() {
		cs = append(cs, c)
	}
	if c := 2*id + 2; c < rt.N() {
		cs = append(cs, c)
	}
	return cs
}

// AllReduce sums val across all processes and returns the sum everywhere
// (binary-tree up/down sweep over control messages).
func (rt *RT) AllReduce(p *sim.Proc, val uint64) uint64 {
	t0 := p.Now()
	defer func() { rt.CommTime += p.Now() - t0 }()

	gen := rt.gen
	rt.gen++
	id := rt.ID()
	kids := rt.children(id)

	// Fold in our own contribution.
	rt.upVal[gen] += val
	// Wait for the children's partial results.
	for rt.upCnt[gen] < len(kids) {
		if rt.failed() {
			return 0
		}
		rt.T.PollWait(p)
	}
	var result uint64
	if id == 0 {
		result = rt.upVal[gen]
	} else {
		parent := (id - 1) / 2
		rt.T.Ctl(p, parent, packCtl(ctlUp, gen), rt.upVal[gen])
		for {
			if v, ok := rt.downOK[gen]; ok {
				result = v
				break
			}
			if rt.failed() {
				return 0
			}
			rt.T.PollWait(p)
		}
	}
	for _, c := range kids {
		rt.T.Ctl(p, c, packCtl(ctlDown, gen), result)
	}
	delete(rt.upVal, gen)
	delete(rt.upCnt, gen)
	delete(rt.downOK, gen)
	return result
}

// Barrier blocks until every process has entered it; a peer death breaks
// the wait and surfaces as the returned error.
func (rt *RT) Barrier(p *sim.Proc) error {
	rt.AllReduce(p, 0)
	return rt.Err
}

// AllStoreSync is Split-C's all_store_sync: a global barrier that also
// guarantees every store issued anywhere has been deposited. It iterates a
// (sent, received) global sum until the two agree.
func (rt *RT) AllStoreSync(p *sim.Proc) error {
	// Communication time is accumulated by the AllReduce and Poll calls
	// themselves; wrapping them again would double-count.
	for {
		sent := rt.AllReduce(p, uint64(rt.storesSent))
		recvd := rt.AllReduce(p, uint64(rt.landed))
		if rt.failed() {
			return rt.Err
		}
		if sent == recvd {
			return nil
		}
		rt.Poll(p)
	}
}

// BroadcastBytes copies node 0's segment region [off, off+n) to the same
// region on every node. It is implemented with stores plus a barrier, as
// Split-C programs typically do.
func (rt *RT) BroadcastBytes(p *sim.Proc, off, n int) error {
	if rt.ID() == 0 {
		data := rt.Mem()[off : off+n]
		for d := 1; d < rt.N(); d++ {
			rt.Store(p, GlobalPtr{Node: d, Off: off}, data)
		}
	}
	return rt.AllStoreSync(p)
}
