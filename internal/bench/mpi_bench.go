package bench

import (
	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/sim"
)

// MPIImpl selects one of the MPI configurations the paper plots in
// Figures 7–11.
type MPIImpl int

const (
	// AMStoreRaw is the bare am_store lower bound shown on Figures 8–11.
	AMStoreRaw MPIImpl = iota
	// MPIAMUnopt is MPICH-over-AM before the §4.2 optimizations.
	MPIAMUnopt
	// MPIAMOpt is the optimized MPI-AM.
	MPIAMOpt
	// MPIF is the vendor MPI model.
	MPIF
	// MPIBufferedOnly, MPIRdvOnly, MPIHybrid are the Figure-7 protocol
	// isolates.
	MPIBufferedOnly
	MPIRdvOnly
	MPIHybrid
)

func (m MPIImpl) String() string {
	switch m {
	case AMStoreRaw:
		return "am_store"
	case MPIAMUnopt:
		return "unoptimized AM MPI"
	case MPIAMOpt:
		return "optimized AM MPI"
	case MPIF:
		return "MPI-F"
	case MPIBufferedOnly:
		return "buffered"
	case MPIRdvOnly:
		return "rendezvous"
	case MPIHybrid:
		return "hybrid buffered/rendezvous"
	}
	return "?"
}

func (m MPIImpl) options() mpi.Options {
	switch m {
	case MPIAMUnopt:
		return mpi.Unoptimized()
	case MPIAMOpt:
		return mpi.Optimized()
	case MPIBufferedOnly:
		return mpi.Options{Optimized: false, BufferedMax: 16 << 10}
	case MPIRdvOnly:
		return mpi.Options{Optimized: false, BufferedMax: 0}
	case MPIHybrid:
		return mpi.Options{Optimized: true, BufferedMax: 4 << 10, HybridPrefix: 4 << 10}
	}
	panic("bench: no mpi options for " + m.String())
}

// ptRanks builds s's n-node cluster and the chosen MPI on it, observed,
// returning the PT per rank.
func ptRanks(s Setup, n int, impl MPIImpl) (*hw.Cluster, []mpi.PT) {
	cluster := s.cluster(n)
	var pts []mpi.PT
	if impl == MPIF {
		sys := mpi.NewF(cluster)
		s.observe(cluster, nil)
		for _, c := range sys.Comms {
			pts = append(pts, c)
		}
	} else {
		sys := mpi.New(cluster, impl.options())
		s.observe(cluster, sys.AM)
		for _, c := range sys.Comms {
			pts = append(pts, c)
		}
	}
	return cluster, pts
}

// MPIRingLatency measures the paper's Figures 8/10 metric: messages of
// size bytes sent around a 4-node ring with MPI_Send/MPI_Recv, reported as
// microseconds per hop.
func MPIRingLatency(s Setup, impl MPIImpl, size int) float64 {
	const ringN = 4
	const laps = 5
	if impl == AMStoreRaw {
		return amStoreRingLatency(s, size)
	}
	cluster, pts := ptRanks(s, ringN, impl)
	var perHop float64
	for i := 0; i < ringN; i++ {
		i := i
		c := pts[i]
		cluster.Spawn(i, "ring", func(p *sim.Proc, nd *hw.Node) {
			next := (i + 1) % ringN
			prev := (i + ringN - 1) % ringN
			buf := make([]byte, size)
			if i == 0 {
				// Warm-up lap, then timed laps.
				mpi.Send(p, c, buf, next, 1)
				mpi.Recv(p, c, buf, prev, 1)
				t0 := p.Now()
				for l := 0; l < laps; l++ {
					mpi.Send(p, c, buf, next, 1)
					mpi.Recv(p, c, buf, prev, 1)
				}
				perHop = (p.Now() - t0).Microseconds() / float64(laps*ringN)
			} else {
				for l := 0; l < laps+1; l++ {
					mpi.Recv(p, c, buf, prev, 1)
					mpi.Send(p, c, buf, next, 1)
				}
			}
		})
	}
	cluster.Run()
	return perHop
}

// MPIBandwidth measures point-to-point one-way bandwidth (Figures 7/9/11):
// total bytes moved in size-byte messages with a window of nonblocking
// operations, in MB/s.
func MPIBandwidth(s Setup, impl MPIImpl, size, total int) float64 {
	if impl == AMStoreRaw {
		// The am_store bound is the thin-node AM benchmark's, on either node type.
		s.Wide = false
		mbps, _ := Bandwidth(s, AsyncStore, size, total)
		return mbps
	}
	if size > total {
		total = size
	}
	msgs := total / size
	const window = 8
	cluster, pts := ptRanks(s, 2, impl)
	var mbps float64
	tx, rx := pts[0], pts[1]
	cluster.Spawn(0, "tx", func(p *sim.Proc, nd *hw.Node) {
		data := make([]byte, size)
		ack := make([]byte, 0)
		t0 := p.Now()
		sent := 0
		for sent < msgs {
			batch := window
			if msgs-sent < batch {
				batch = msgs - sent
			}
			reqs := make([]*mpi.Request, 0, batch)
			for k := 0; k < batch; k++ {
				reqs = append(reqs, tx.Isend(p, data, 1, 7))
			}
			for _, r := range reqs {
				tx.Wait(p, r)
			}
			sent += batch
		}
		mpi.Recv(p, tx, ack, 1, 8) // delivery confirmation
		mbps = float64(msgs*size) / 1e6 / (p.Now() - t0).Seconds()
	})
	cluster.Spawn(1, "rx", func(p *sim.Proc, nd *hw.Node) {
		buf := make([]byte, size*window)
		got := 0
		for got < msgs {
			batch := window
			if msgs-got < batch {
				batch = msgs - got
			}
			reqs := make([]*mpi.Request, 0, batch)
			for k := 0; k < batch; k++ {
				reqs = append(reqs, rx.Irecv(p, buf[k*size:(k+1)*size], 0, 7))
			}
			for _, r := range reqs {
				rx.Wait(p, r)
			}
			got += batch
		}
		mpi.Send(p, rx, nil, 0, 8)
	})
	cluster.Run()
	return mbps
}

// MPIHybridPrefixBandwidth measures MPI-AM bandwidth at one message size
// with an explicit hybrid-prefix setting (0 disables the hybrid protocol),
// for the prefix-size ablation.
func MPIHybridPrefixBandwidth(s Setup, prefix, size, total int) float64 {
	cluster := s.cluster(2)
	sys := mpi.New(cluster, mpi.Options{Optimized: true, BufferedMax: 8 << 10, HybridPrefix: prefix})
	s.observe(cluster, sys.AM)
	msgs := total / size
	var mbps float64
	tx, rx := sys.Comms[0], sys.Comms[1]
	cluster.Spawn(0, "tx", func(p *sim.Proc, nd *hw.Node) {
		data := make([]byte, size)
		t0 := p.Now()
		for i := 0; i < msgs; i++ {
			mpi.Send(p, tx, data, 1, 7)
		}
		mpi.Recv(p, tx, nil, 1, 8)
		mbps = float64(msgs*size) / 1e6 / (p.Now() - t0).Seconds()
	})
	cluster.Spawn(1, "rx", func(p *sim.Proc, nd *hw.Node) {
		buf := make([]byte, size)
		for i := 0; i < msgs; i++ {
			mpi.Recv(p, rx, buf, 0, 7)
		}
		mpi.Send(p, rx, nil, 0, 8)
	})
	cluster.Run()
	return mbps
}

// MPILatencyCurve sweeps Figure 8/10 sizes for one implementation.
func MPILatencyCurve(s Setup, impl MPIImpl, sizes []int) Curve {
	return Curve{Name: impl.String(), Points: Sweep(s, len(sizes), func(s Setup, i int) Point {
		return Point{N: sizes[i], MBps: MPIRingLatency(s, impl, sizes[i])}
	})}
}

// MPIBandwidthCurve sweeps Figure 7/9/11 sizes for one implementation.
func MPIBandwidthCurve(s Setup, impl MPIImpl, sizes []int, total int) Curve {
	return Curve{Name: impl.String(), Points: Sweep(s, len(sizes), func(s Setup, i int) Point {
		return Point{N: sizes[i], MBps: MPIBandwidth(s, impl, sizes[i], total)}
	})}
}
