package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval around a call into a layer, recorded from this
// package only (spans inside the layers are a later change). Counters are
// the layer counters read at the span's end, so ratios are measured where
// the work happens.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 = root
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"` // host ns since the tracer was made
	EndNS    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// which is how untraced reps run the same workload code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id, attaching counters read at the boundary.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Counters = counters
}

// write stores the spans as one JSON document at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"spam-benchmark-trace/v1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
