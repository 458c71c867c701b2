package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spam/internal/am"
	"spam/internal/hw"
)

// Par is the sweep worker count, set from the commands' -par flag: 1 (the
// default) runs points serially, 0 means one worker per GOMAXPROCS, and any
// other value is used as given. Independent simulation points — each builds
// its own cluster and engine — are fanned across workers; results are always
// assembled in index order, so sweep output is byte-identical to a serial
// run regardless of worker count or host scheduling.
var Par = 1

// sweepWorkers resolves Par against the point count and the observer hooks.
// Tracing and metrics install process-wide collectors (hw.DefaultTracer,
// am.DefaultMetrics) that every cluster built during the run feeds; those
// runs must stay serial to keep the collected streams meaningful.
func sweepWorkers(n int) int {
	w := Par
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if hw.DefaultTracer != nil || am.DefaultMetrics != nil {
		w = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sweep evaluates f(0..n-1) across the configured workers and returns the
// results indexed by i. Each call to f must be self-contained (build its own
// engine/cluster and touch no shared mutable state); every sweep in this
// package satisfies that by construction.
func Sweep[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	w := sweepWorkers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}
