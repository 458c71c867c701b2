package bench

import (
	"runtime"
	"sync"

	"spam/internal/trace"
)

// Sweep evaluates f for points 0..n-1 across s.Par workers and returns the
// results indexed by point. Each call to f must be self-contained: it builds
// its own machines, under the Setup it is handed, and touches no shared
// mutable state. That Setup is s with, when s observes, a private recorder
// and registry, folded into s's own in index order as the points finish —
// so s's observers end holding what one shared stream would hold after a
// serial run (the same events, packet ids, cap and counters), and the
// output is byte-identical whatever the worker count.
func Sweep[T any](s Setup, n int, f func(s Setup, i int) T) []T {
	out := make([]T, n)
	pts := make([]Setup, n)
	done := make([]bool, n)
	var mu sync.Mutex
	next, folded := 0, 0
	var wg sync.WaitGroup
	w := s.Par
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	for k := max(1, min(w, n)); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				if i >= n {
					mu.Unlock()
					return
				}
				pts[i] = s.fork()
				mu.Unlock()

				out[i] = f(pts[i], i)

				mu.Lock()
				for done[i] = true; folded < n && done[folded]; folded++ {
					s.join(pts[folded])
					pts[folded] = Setup{}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// fork is the Setup one sweep point runs under: s with a fresh recorder and
// registry of its own in place of s's. The recorder is capped at the room
// s's has now, so no point holds events s's could not keep.
func (s Setup) fork() Setup {
	if s.Tracer != nil {
		s.Tracer = s.Tracer.Fork()
	}
	if s.Metrics != nil {
		s.Metrics = trace.NewRegistry()
	}
	return s
}

// join folds what the point run under p (s.fork()) observed into s's
// observers.
func (s Setup) join(p Setup) {
	if s.Tracer != nil {
		s.Tracer.Join(p.Tracer)
	}
	if s.Metrics != nil {
		s.Metrics.Merge(p.Metrics)
	}
}
