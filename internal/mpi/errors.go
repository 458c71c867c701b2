package mpi

import "fmt"

// ErrCode classifies MPI-level failures surfaced by blocking calls and
// Finalize instead of wedging the rank.
type ErrCode int

const (
	// ErrPeerDead reports that the AM layer declared the peer fail-stopped
	// (the Cause carries the underlying *am.PeerDeathError).
	ErrPeerDead ErrCode = iota + 1
	// ErrTimeout reports that the communicator's deadline expired while the
	// operation was still incomplete.
	ErrTimeout
	// ErrTruncate reports a message longer than its receive buffer
	// (MPI_ERR_TRUNCATE). The message was consumed and discarded; Status
	// gives the size that was sent.
	ErrTruncate
)

func (c ErrCode) String() string {
	switch c {
	case ErrPeerDead:
		return "peer dead"
	case ErrTimeout:
		return "timeout"
	case ErrTruncate:
		return "message truncated"
	}
	return fmt.Sprintf("ErrCode(%d)", int(c))
}

// Error is the typed failure every erring MPI call returns. Errors are
// sticky per peer: once a peer is dead every later operation naming it fails
// with the same code.
type Error struct {
	Code  ErrCode
	Rank  int // local rank observing the failure
	Peer  int // remote rank involved, -1 when not attributable
	Cause error
}

func (e *Error) Error() string {
	s := fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Code)
	if e.Peer >= 0 {
		s += fmt.Sprintf(" (peer %d)", e.Peer)
	}
	if e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

func (e *Error) Unwrap() error { return e.Cause }
