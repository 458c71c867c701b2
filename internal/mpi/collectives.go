package mpi

import "spam/internal/sim"

// PT is the point-to-point surface the generic (MPICH-style) collectives,
// Send/Recv/Sendrecv and the NAS kernels program against; MPI-AM (*Comm)
// and MPI-F (*FComm) implement it over their one shared core. Every
// blocking call reports failure — a dead peer or an expired deadline — as a
// typed error instead of spinning forever.
type PT interface {
	Rank() int
	Size() int
	Isend(p *sim.Proc, data []byte, dst, tag int) *Request
	Irecv(p *sim.Proc, buf []byte, src, tag int) *Request
	Wait(p *sim.Proc, r *Request) (Status, error)
	// NextCollTag returns a fresh negative tag, in the library context
	// AnyTag never takes (mpl.Matches). The collectives, and the NAS LU, ADI
	// and MG kernels' and examples/stencil's point-to-point messages, draw
	// their tags here in the same order on every rank, so the tags match.
	NextCollTag() int
	// Alltoall exchanges chunk bytes with every rank; the implementation
	// picks the algorithm (MPICH generic vs vendor-tuned — see Table 6's
	// FT discussion).
	Alltoall(p *sim.Proc, send, recv []byte, chunk int) error
	// SetDeadline arms an absolute simulated-time deadline on every
	// blocking call (0 disarms); an overdue call returns ErrTimeout.
	SetDeadline(at sim.Time)
	// Finalize is MPI_Finalize: a closing barrier, then a drain of this
	// rank's transport traffic, bounded by budget (0 = unbounded).
	Finalize(p *sim.Proc, budget sim.Time) error

	// drainSends is the transport step a blocking Send takes after its
	// Wait: a no-op on MPI-AM, MPL's DrainSends on MPI-F.
	drainSends(p *sim.Proc)
	// cancel deregisters a receive that is still unmatched.
	cancel(r *Request)
}

// Send is the blocking standard send.
func Send(p *sim.Proc, c PT, data []byte, dst, tag int) error {
	if _, err := c.Wait(p, c.Isend(p, data, dst, tag)); err != nil {
		return err
	}
	c.drainSends(p)
	return nil
}

// Recv is the blocking receive; it returns the completion status.
func Recv(p *sim.Proc, c PT, buf []byte, src, tag int) (Status, error) {
	return c.Wait(p, c.Irecv(p, buf, src, tag))
}

// Sendrecv performs the combined operation (used heavily by collectives
// and the NAS kernels).
func Sendrecv(p *sim.Proc, c PT, sendbuf []byte, dst, stag int, recvbuf []byte, src, rtag int) (Status, error) {
	rr := c.Irecv(p, recvbuf, src, rtag)
	sr := c.Isend(p, sendbuf, dst, stag)
	if _, err := c.Wait(p, sr); err != nil {
		c.cancel(rr) // don't leave a stale posting behind the failed half
		return Status{}, err
	}
	return c.Wait(p, rr)
}

// SendB is Send under the name benchmark/ladder.go calls.
func (c *Comm) SendB(p *sim.Proc, data []byte, dst, tag int) error { return Send(p, c, data, dst, tag) }

// RecvB is Recv under the name benchmark/ladder.go calls.
func (c *Comm) RecvB(p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	return Recv(p, c, buf, src, tag)
}

// Alltoall for MPI-AM uses the MPICH generic algorithm: post every
// receive, then send to ranks in identical (increasing) order everywhere —
// the convoy pattern the paper blames for FT's MPI_Alltoall bottleneck.
func (c *Comm) Alltoall(p *sim.Proc, send, recv []byte, chunk int) error {
	return AlltoallNaive(p, c, send, recv, chunk)
}

// Barrier blocks until all ranks arrive (binomial gather + broadcast). A
// failure anywhere in the tree propagates out as the typed error.
func Barrier(p *sim.Proc, c PT) error {
	tag := c.NextCollTag()
	none := []byte{}
	me, n := c.Rank(), c.Size()
	// Gather to 0 up a binomial tree.
	mask := 1
	for mask < n {
		if me&mask != 0 {
			if err := Send(p, c, none, me-mask, tag); err != nil {
				return err
			}
			break
		}
		if me+mask < n {
			if _, err := Recv(p, c, none, me+mask, tag); err != nil {
				return err
			}
		}
		mask <<= 1
	}
	// Release down the tree.
	return bcastBinomial(p, c, none, 0, c.NextCollTag())
}

// Bcast broadcasts buf (significant at root) over a binomial tree.
func Bcast(p *sim.Proc, c PT, buf []byte, root int) error {
	return bcastBinomial(p, c, buf, root, c.NextCollTag())
}

func bcastBinomial(p *sim.Proc, c PT, buf []byte, root, tag int) error {
	me, n := c.Rank(), c.Size()
	rel := (me - root + n) % n
	// Receive from parent.
	if rel != 0 {
		mask := 1
		for mask <= rel {
			mask <<= 1
		}
		mask >>= 1
		parent := (rel - mask + root) % n
		if _, err := Recv(p, c, buf, parent, tag); err != nil {
			return err
		}
	}
	// Forward to children.
	mask := 1
	for mask <= rel {
		mask <<= 1
	}
	for ; mask < n; mask <<= 1 {
		child := rel + mask
		if child < n {
			if err := Send(p, c, buf, (child+root)%n, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// Op combines src into dst element-wise (caller fixes the element type).
type Op func(dst, src []byte)

// Reduce combines every rank's send into recv at root (binomial tree).
// send and recv must be the same length; recv may be nil on non-roots.
func Reduce(p *sim.Proc, c PT, send, recv []byte, root int, op Op) error {
	tag := c.NextCollTag()
	me, n := c.Rank(), c.Size()
	rel := (me - root + n) % n
	acc := append([]byte(nil), send...)
	tmp := make([]byte, len(send))
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % n
			if err := Send(p, c, acc, parent, tag); err != nil {
				return err
			}
			break
		}
		if rel+mask < n {
			child := (rel + mask + root) % n
			if _, err := Recv(p, c, tmp, child, tag); err != nil {
				return err
			}
			op(acc, tmp)
		}
		mask <<= 1
	}
	if me == root {
		copy(recv, acc)
	}
	return nil
}

// Allreduce is MPICH-style: Reduce to 0, then Bcast.
func Allreduce(p *sim.Proc, c PT, send, recv []byte, op Op) error {
	if len(recv) != len(send) {
		panic("mpi: Allreduce buffer length mismatch")
	}
	if err := Reduce(p, c, send, recv, 0, op); err != nil {
		return err
	}
	return Bcast(p, c, recv, 0)
}

// Gather collects chunk bytes from each rank into recv (rank-ordered) at
// root; MPICH basic: linear receives at the root.
func Gather(p *sim.Proc, c PT, send, recv []byte, root int) error {
	tag := c.NextCollTag()
	me, n := c.Rank(), c.Size()
	if me != root {
		return Send(p, c, send, root, tag)
	}
	chunk := len(send)
	copy(recv[me*chunk:], send)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		if _, err := Recv(p, c, recv[r*chunk:(r+1)*chunk], r, tag); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes rank-ordered chunks of send (at root) into recv.
func Scatter(p *sim.Proc, c PT, send, recv []byte, root int) error {
	tag := c.NextCollTag()
	me, n := c.Rank(), c.Size()
	chunk := len(recv)
	if me != root {
		_, err := Recv(p, c, recv, root, tag)
		return err
	}
	copy(recv, send[me*chunk:(me+1)*chunk])
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		if err := Send(p, c, send[r*chunk:(r+1)*chunk], r, tag); err != nil {
			return err
		}
	}
	return nil
}

// AlltoallNaive is the MPICH generic all-to-all: all receives posted, then
// sends issued to ranks 0,1,2,... identically on every rank, which convoys
// every processor onto the same destination at once (the paper's FT
// complaint).
func AlltoallNaive(p *sim.Proc, c PT, send, recv []byte, chunk int) error {
	tag := c.NextCollTag()
	me, n := c.Rank(), c.Size()
	reqs := make([]*Request, 0, 2*n)
	for r := 0; r < n; r++ {
		if r == me {
			copy(recv[r*chunk:(r+1)*chunk], send[r*chunk:(r+1)*chunk])
			continue
		}
		reqs = append(reqs, c.Irecv(p, recv[r*chunk:(r+1)*chunk], r, tag))
	}
	for r := 0; r < n; r++ { // same order everywhere: the convoy
		if r == me {
			continue
		}
		reqs = append(reqs, c.Isend(p, send[r*chunk:(r+1)*chunk], r, tag))
	}
	var first error
	for _, r := range reqs {
		if _, err := c.Wait(p, r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AlltoallPairwise spreads the communication: in step k every rank
// exchanges with rank^k (power-of-two) or (rank±k) mod n, avoiding the
// convoy; this is the vendor-tuned pattern MPI-F uses.
func AlltoallPairwise(p *sim.Proc, c PT, send, recv []byte, chunk int) error {
	tag := c.NextCollTag()
	me, n := c.Rank(), c.Size()
	copy(recv[me*chunk:(me+1)*chunk], send[me*chunk:(me+1)*chunk])
	for k := 1; k < n; k++ {
		dst := (me + k) % n
		src := (me - k + n) % n
		rr := c.Irecv(p, recv[src*chunk:(src+1)*chunk], src, tag)
		sr := c.Isend(p, send[dst*chunk:(dst+1)*chunk], dst, tag)
		if _, err := c.Wait(p, sr); err != nil {
			return err
		}
		if _, err := c.Wait(p, rr); err != nil {
			return err
		}
	}
	return nil
}
