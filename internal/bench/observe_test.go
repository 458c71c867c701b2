package bench

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spam/internal/trace"
)

// TestFinishReportsTruncatedTrace: a -trace recorder that hit its cap still
// leaves the file it has, and Finish returns the error the commands turn
// into one stderr line and exit status 1 — not "wrote N events" over a file
// that silently lacks the rest.
func TestFinishReportsTruncatedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	rec := trace.NewWithCap(4)
	for i := 0; i < 10; i++ {
		rec.Emit(int64(i), trace.EvPolled, 0, 0, 0, "")
	}
	err := (&CommonFlags{trace: &path, rec: rec}).Finish(io.Discard)
	if err == nil || !strings.Contains(err.Error(), "kept 4 events, dropped 6") {
		t.Errorf("Finish over a recorder that dropped 6 of 10 events returned %v", err)
	}
	if fi, statErr := os.Stat(path); statErr != nil || fi.Size() == 0 {
		t.Errorf("the truncated trace was not written: %v", statErr)
	}
	if err := (&CommonFlags{trace: &path, rec: trace.NewWithCap(4)}).Finish(io.Discard); err != nil {
		t.Errorf("Finish over a recorder under its cap: %v", err)
	}
}
