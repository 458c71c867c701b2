package sim

import "testing"

// TestHandoffSwitchBudget gates the host cost of a hand-off through its
// deterministic proxy: two processes waking each other switch exactly once
// per hand-off, and no shape — round-robin, which unwinds the whole chain
// once a lap, a hub and its spokes, a random mix with processes finishing
// and detaching under others — takes more than two.
func TestHandoffSwitchBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(e *Engine)
		max   int64 // switches per hand-off
	}{
		{"two interleaved", func(e *Engine) { spawnPollers(e, 2, 1000) }, 1},
		{"ring of 8", func(e *Engine) { spawnPollers(e, 8, 1000) }, 2},
		{"hub and 7 spokes", func(e *Engine) { spawnFan(e, 7000) }, 2},
		{"random mix", func(e *Engine) { mix(e, 8, 400, func(int) {}) }, 2},
	} {
		e := NewEngine(7)
		tc.build(e)
		e.RunAll()
		e.Release()
		h, s := e.Handoffs, e.Switches
		t.Logf("%s: %d hand-offs, %d switches (%.3f)", tc.name, h, s, float64(s)/float64(h))
		if h < 2000 || s < h || s > tc.max*h {
			t.Errorf("%s: %d switches for %d hand-offs, want between 1 and %d each over at least 2000",
				tc.name, s, h, tc.max)
		}
	}
}
