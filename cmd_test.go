package spam

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandsRejectBadFlags: a flag value outside its range is one line on
// stderr and exit status 1, before any simulation starts — not a goroutine
// trace from whichever layer the value reached.
func TestCommandsRejectBadFlags(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "./cmd/splitc-bench", "./cmd/spam-trace", "./cmd/kv-bench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"splitc-bench", "-p", "0"},
		{"splitc-bench", "-p", "-2"},
		{"spam-trace", "-words", "5"},
		{"spam-trace", "-words", "-1"},
		{"kv-bench", "-servers", "0"},
		{"kv-bench", "-nodes", "0"},
		{"kv-bench", "-reqs", "0"},
		{"kv-bench", "-batchops", "99"},
		{"kv-bench", "-servers", "1", "-chaos", "kill"},
		{"kv-bench", "-chaos", "kill", "-killat", "-5"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, args[0]), args[1:]...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: %v, want exit status 1", args, err)
		}
		msg := stderr.String()
		if msg == "" || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine ") {
			t.Errorf("%v: stderr is not one line of diagnosis:\n%s", args, msg)
		}
	}
}
