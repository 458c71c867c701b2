package gam

import (
	"testing"

	"spam/internal/sim"
	"spam/internal/splitc"
	"spam/internal/splitc/apps"
)

// pollLoop is a node whose PollWait is the plain Poll it replaces.
type pollLoop struct{ *gnode }

func (n pollLoop) PollWait(p *sim.Proc) { n.Poll(p) }

// TestPollWaitMatchesPollLoop runs each Table-5 program (at a quick size,
// on one of the Table-4 machines) twice: once as built, and once with each
// runtime's transport swapped for its pollLoop node. Stepping idle polls
// inline must not move anything: the events run, the end time and the
// results are equal.
func TestPollWaitMatchesPollLoop(t *testing.T) {
	const procs, keys = 8, 1 << 12
	cases := []struct {
		name string
		mp   Params
		heap int
		run  func(pl splitc.Platform) apps.Result
	}{
		{"mm 16x16", CM5(), apps.MatMulHeap(4, 16, procs), func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, 4, 16) }},
		{"mm 8x8", UNetATM(), apps.MatMulHeap(8, 8, procs), func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, 8, 8) }},
		{"smpsort sm", UNetATM(), apps.SampleSortHeap(keys, procs), func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, keys, false) }},
		{"smpsort lg", CM5(), apps.SampleSortHeap(keys, procs), func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, keys, true) }},
		{"rdxsort sm", CS2(), apps.RadixSortHeap(keys, procs), func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, keys, false) }},
		{"rdxsort lg", CS2(), apps.RadixSortHeap(keys, procs), func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, keys, true) }},
	}
	for _, tc := range cases {
		fast, slow := New(tc.mp, procs, tc.heap), New(tc.mp, procs, tc.heap)
		for _, rt := range slow.Runtimes {
			rt.T = pollLoop{rt.T.(*gnode)}
		}
		got, want := tc.run(fast), tc.run(slow)
		if got != want || fast.Eng.EventsRun != slow.Eng.EventsRun || fast.Eng.Now() != slow.Eng.Now() {
			t.Errorf("%s on %s: PollWait %+v after %d events ending %v; Poll loop %+v after %d events ending %v",
				tc.name, tc.mp.Name, got, fast.Eng.EventsRun, fast.Eng.Now(), want, slow.Eng.EventsRun, slow.Eng.Now())
		}
	}
}
