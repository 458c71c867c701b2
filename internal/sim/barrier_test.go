package sim

import (
	"errors"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGroupAwaitIgnoresStaleWake hands a parked worker the wake token of a
// releaser that bumped seq long ago (see Group): the worker must not leave
// await and must not arrive at the barrier, and the proper release that
// follows must run exactly one window.
func TestGroupAwaitIgnoresStaleWake(t *testing.T) {
	g := NewGroup(1, 2, 500)
	w := g.workers[0]
	ran := 0
	w.eng.At(100, func() { ran++ })
	g.arrive.Store(2) // this worker is never the last arriver
	g.wg.Add(1)
	go g.worker(w, w.seq.Load())
	parked := func() bool { return w.parked.Load() == 1 }
	waitFor(t, "the worker to park", parked)

	// The late half of a release whose seq bump the worker consumed earlier.
	if !w.parked.CompareAndSwap(1, 0) {
		t.Fatal("parked flag taken by someone else")
	}
	w.wake <- struct{}{}
	waitFor(t, "the worker to park again after the stale token", parked)
	if n := g.arrive.Load(); n != 2 {
		t.Fatalf("arrive = %d after a stale wake-up, want 2 (the worker acted without a release)", n)
	}
	if ran != 0 {
		t.Fatalf("a stale wake-up ran %d events", ran)
	}

	g.release(w, opWindow, 1000)
	waitFor(t, "the released window to arrive", func() bool { return g.arrive.Load() < 2 })
	waitFor(t, "the worker to park after its window", parked)
	if n := g.arrive.Load(); n != 1 {
		t.Fatalf("arrive = %d after one release, want 1", n)
	}
	if ran != 1 || w.eng.EventsRun != 1 {
		t.Fatalf("one release ran %d callbacks, %d events, want 1 and 1", ran, w.eng.EventsRun)
	}
	g.release(w, opExit, 0)
	g.wg.Wait()
}

// TestGroupBarrierOversubscribed runs 8 shards on 2 Ps while background
// goroutines sit in reads of /dev/urandom: a goroutine in a system call holds
// no P, so each is a CPU-burning thread beyond GOMAXPROCS, and with one fewer
// of them than CPUs the kernel has to take a worker's thread off its CPU at
// arbitrary points — between the two halves of release included, which no
// goroutine sharing the 2 Ps can do. Each shard re-chains one event per
// window, as BenchmarkWindowBarrier does, so every window has all shards
// active: a window decided while a shard is still running shows up as a solo
// window for the straggler. The run is one second of wall time long: shard 0
// picks the last window one window ahead, so every shard stops after the
// same event.
func TestGroupBarrierOversubscribed(t *testing.T) {
	const shards = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := NewGroup(1, shards, 500)

	var stop atomic.Bool
	var hogs sync.WaitGroup
	for i := 1; i < runtime.NumCPU(); i++ {
		f, err := os.Open("/dev/urandom")
		if err != nil {
			break // no such device: the 8-on-2 oversubscription still holds
		}
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			defer f.Close()
			for buf := make([]byte, 1<<16); !stop.Load(); {
				if _, err := f.Read(buf); err != nil {
					return
				}
			}
		}()
	}

	var negative atomic.Bool
	var last atomic.Int64
	last.Store(math.MaxInt64)
	deadline := time.Now().Add(time.Second)
	for i, e := range g.Engines() {
		var n int64
		var step func()
		step = func() {
			if g.arrive.Load() < 0 {
				negative.Store(true)
			}
			n++
			if i == 0 && n%64 == 0 && time.Now().After(deadline) {
				last.CompareAndSwap(math.MaxInt64, n+1)
			}
			if n < last.Load() {
				e.After(500, step)
			}
		}
		e.After(500, step)
	}

	done := make(chan error, 1)
	go func() { done <- g.Run(0) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Minute):
		err = errors.New("barrier hung: a shard missed a release")
	}
	stop.Store(true)
	hogs.Wait()
	if err != nil {
		t.Fatal(err)
	}

	windows := last.Load()
	for i, e := range g.Engines() {
		if e.EventsRun != windows {
			t.Errorf("shard %d ran %d events, want %d", i, e.EventsRun, windows)
		}
	}
	if st := g.Stats(); st.Windows != windows || st.SoloWindows != 0 {
		t.Errorf("windows = %d barrier + %d solo, want %d + 0 (one decided while a shard was still running)",
			st.Windows, st.SoloWindows, windows)
	}
	if negative.Load() || g.arrive.Load() != 0 {
		t.Errorf("arrive went negative (final value %d): a shard arrived twice for one release", g.arrive.Load())
	}
}
