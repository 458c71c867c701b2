package bench

import (
	"testing"

	"spam/internal/faults"
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
			{"empty fault plan", Setup{Plan: faults.NewPlan("none", 1)}},
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
}
