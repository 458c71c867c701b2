package bench

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"spam/internal/faults"
	"spam/internal/kv"
	"spam/internal/trace"
)

// TestObserversDoNotPerturb states the north star's "observers must not
// change what they observe" for the two loops every AM figure comes from:
// attaching a recorder and a metrics registry, or a fault plan with no
// rules, leaves the timed figure, the protocol counters, the loss tally and
// the number of simulation events exactly where the bare run put them.
func TestObserversDoNotPerturb(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Setup) (float64, Ran)
	}{
		{"ping-pong 1 word", func(s Setup) (float64, Ran) { return PingPong(s, 1, 1, 32) }},
		{"ping-pong 4 words", func(s Setup) (float64, Ran) { return PingPong(s, 4, 1, 32) }},
		{"async store 64 KiB ops", func(s Setup) (float64, Ran) { return Bandwidth(s, AsyncStore, 1<<16, 1<<19) }},
	}
	for _, d := range drivers {
		want, wantRan := d.run(Setup{})
		if !(want > 0) || wantRan.Stats.PacketsSent == 0 || wantRan.Events == 0 {
			t.Fatalf("%s: bare run measured %v with %+v", d.name, want, wantRan)
		}
		rec, reg := trace.New(), trace.NewRegistry()
		for _, o := range []struct {
			name string
			s    Setup
		}{
			{"tracer and metrics", Setup{Tracer: rec, Metrics: reg}},
			{"empty fault plan", Setup{Plan: &faults.Plan{Name: "none", Seed: 1}}},
		} {
			got, gotRan := d.run(o.s)
			if got != want || gotRan != wantRan {
				t.Errorf("%s with %s: %v %+v\nbare: %v %+v", d.name, o.name, got, gotRan, want, wantRan)
			}
		}
		if rec.Len() == 0 || reg.Counter("am.polls").Value() != wantRan.Stats.Polls {
			t.Errorf("%s: the observers saw %d events and %d polls of %d", d.name,
				rec.Len(), reg.Counter("am.polls").Value(), wantRan.Stats.Polls)
		}
	}

	// The sweep arm: an observed table prints the same bytes, and its
	// observers end holding the same events (packet ids included) and the
	// same registry, serially, on two workers and on one per CPU.
	tables := []struct {
		name string
		run  func(io.Writer, Setup)
	}{
		{"ablations", AblationTable},
		{"kv ladder", func(w io.Writer, s Setup) {
			KVTailTable(w, s, kv.Config{Servers: 2, ClientNodes: 2, Keys: 1 << 10, Requests: 300, Seed: 3},
				[]float64{50e3, 200e3, 400e3})
		}},
	}
	for _, tb := range tables {
		type observed struct {
			out    string
			events []trace.Event
			snap   []trace.Metric
		}
		var want observed
		for _, par := range []int{1, 2, 0} {
			var out bytes.Buffer
			s := Setup{Par: par, Tracer: trace.New(), Metrics: trace.NewRegistry()}
			tb.run(&out, s)
			got := observed{out.String(), s.Tracer.Events(), s.Metrics.Snapshot()}
			if par == 1 {
				if len(got.events) == 0 || len(got.snap) == 0 {
					t.Fatalf("%s: the observers saw nothing: %d events, %d metrics", tb.name, len(got.events), len(got.snap))
				}
				want = got
				continue
			}
			if got.out != want.out {
				t.Errorf("%s at Par %d prints\n%s\nserially\n%s", tb.name, par, got.out, want.out)
			}
			if !slices.Equal(got.events, want.events) {
				t.Errorf("%s at Par %d: %d events differ from the serial %d", tb.name, par, len(got.events), len(want.events))
			}
			if !reflect.DeepEqual(got.snap, want.snap) {
				t.Errorf("%s at Par %d: registry\n%+v\nserially\n%+v", tb.name, par, got.snap, want.snap)
			}
		}
	}
}

// TestSweepFoldIsOneSharedStream: folding the points' private recorders and
// registries leaves what one recorder and registry shared by the points, run
// in order, would hold — the same events, packet ids offset past the ones
// issued before the sweep, and a cap that fills in the middle of the second
// point keeping the same events and dropping the same count.
func TestSweepFoldIsOneSharedStream(t *testing.T) {
	const points, perPoint = 3, 10
	emit := func(rec *trace.Recorder, reg *trace.Registry, i int) {
		for k := 0; k < perPoint; k++ {
			rec.Emit(int64(k), trace.EvStaged, i, rec.NewPacketID(), int64(k), "")
			reg.Counter("emitted").Add(1)
			reg.Histogram("value").Observe(int64(i*perPoint + k))
		}
	}
	start := func() (*trace.Recorder, *trace.Registry) {
		rec := trace.NewWithCap(1 + perPoint + perPoint/2)
		rec.Emit(0, trace.EvPolled, 0, rec.NewPacketID(), 0, "")
		return rec, trace.NewRegistry()
	}
	want, wantReg := start()
	for i := 0; i < points; i++ {
		emit(want, wantReg, i)
	}
	if want.Len() != 1+perPoint+perPoint/2 || want.Dropped != points*perPoint-perPoint-perPoint/2 {
		t.Fatalf("the shared recorder kept %d and dropped %d", want.Len(), want.Dropped)
	}
	wantNext := want.NewPacketID()
	for _, par := range []int{1, 2, 0} {
		got, gotReg := start()
		Sweep(Setup{Par: par, Tracer: got, Metrics: gotReg}, points, func(s Setup, i int) int {
			emit(s.Tracer, s.Metrics, i)
			return i
		})
		if !slices.Equal(got.Events(), want.Events()) || got.Dropped != want.Dropped {
			t.Errorf("Par %d: kept %v, dropped %d\nshared: kept %v, dropped %d", par, got.Events(), got.Dropped, want.Events(), want.Dropped)
		}
		if next := got.NewPacketID(); next != wantNext {
			t.Errorf("Par %d: next packet id %d, shared %d", par, next, wantNext)
		}
		if !reflect.DeepEqual(gotReg.Snapshot(), wantReg.Snapshot()) {
			t.Errorf("Par %d: registry %+v, shared %+v", par, gotReg.Snapshot(), wantReg.Snapshot())
		}
	}
}
