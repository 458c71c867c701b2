package sim

import "spam/internal/ring"

// Server models a work-conserving FIFO service stage (a DMA engine, a switch
// link, a bus): each submitted job occupies the server for its service time,
// jobs are served in submission order, and a completion callback fires when
// the job's service ends. Servers run entirely in engine-callback context —
// no process is needed — which keeps hardware pipelines cheap.
//
// Only the job in service has an event in the engine's queue. Every job gets
// its ordering key (at, pushAt, seq) at Submit, but the completions of jobs
// queued behind the one in service wait in backlog, and each enters the
// queue, under the key it was given, when its predecessor's completion pops.
// A server's keys are strictly increasing and the successor is queued before
// the finished job's done runs (so before anything else can pop, and before
// done can look at the queue through Cond.Signal), which makes the pop order
// exactly that of pushing every completion at Submit: the queue just never
// holds more than one entry per server, however long the backlog.
type Server struct {
	eng       *Engine
	busyUntil Time

	backlog  ring.Ring[event] // completions not yet queued, keyed at Submit
	done     func()           // callback of the job whose completion is queued, else nil
	complete func()           // that queued event's fn: promote the successor, run done

	// Busy accumulates the service time of every job submitted, performed or
	// not yet (see Served), for utilization accounting.
	Busy Time
}

// NewServer returns a FIFO server on e.
func NewServer(e *Engine) *Server {
	s := &Server{eng: e}
	s.complete = func() {
		done := s.done
		s.done = nil
		if s.backlog.Len() > 0 {
			next := s.backlog.Pop()
			s.done, next.fn = next.fn, s.complete
			e.enqueue(next)
		}
		done()
	}
	return s
}

// Submit enqueues a job with the given service time; done (optional) runs in
// engine context when service completes. It returns the completion time.
func (s *Server) Submit(service Time, done func()) Time {
	if service < 0 {
		service = 0
	}
	e := s.eng
	start := e.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + service
	s.Busy += service
	switch {
	case done == nil:
	case s.busyUntil == e.now:
		// Zero service on an idle server: a same-time event, behind whatever
		// completions of this server are still to pop at this instant.
		e.push(e.now, done)
	case s.done != nil:
		e.seq++
		s.backlog.Push(event{at: s.busyUntil, pushAt: e.now, seq: e.seq, fn: done})
	default:
		e.seq++
		s.done = done
		e.enqueue(event{at: s.busyUntil, pushAt: e.now, seq: e.seq, fn: s.complete})
	}
	return s.busyUntil
}

// Served reports the service time performed so far: Busy less what the job in
// service and the backlog behind it still have to run.
func (s *Server) Served() Time { return s.Busy - (s.IdleAt() - s.eng.now) }

// IdleAt reports when the server will next be idle (now if idle already).
func (s *Server) IdleAt() Time {
	if s.busyUntil < s.eng.now {
		return s.eng.now
	}
	return s.busyUntil
}
