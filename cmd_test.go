package spam

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	goldenAll    = flag.Bool("golden", false, "TestGoldens: regenerate all 13 results/ files (about 70 s serial), not only the six that take under a second")
	goldenUpdate = flag.Bool("update", false, "TestGoldens: rewrite the results/ files it regenerates instead of comparing them")
	goldenPar    = flag.Int("par", 1, "TestGoldens: the -par the commands run with (0 = one sweep worker per CPU); the bytes must not depend on it")
)

// commands builds every command under cmd/ once per test run, without
// -race whatever the test binary was built with, and returns the directory
// holding the binaries. TestMain removes it.
var commands struct {
	once sync.Once
	dir  string
	err  error
	out  []byte
}

func builtCommands(t *testing.T) string {
	t.Helper()
	commands.once.Do(func() {
		commands.dir, commands.err = os.MkdirTemp("", "spam-cmds-")
		if commands.err == nil {
			commands.out, commands.err = exec.Command("go", "build", "-o", commands.dir, "./cmd/...").CombinedOutput()
		}
	})
	if commands.err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", commands.err, commands.out)
	}
	return commands.dir
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if commands.dir != "" {
		os.RemoveAll(commands.dir)
	}
	os.Exit(code)
}

// TestCommandsRejectBadFlags: a flag value outside its range is one line on
// stderr and exit status 1, before any simulation starts — not a goroutine
// trace from whichever layer the value reached, and not a table of something
// else.
func TestCommandsRejectBadFlags(t *testing.T) {
	dir := builtCommands(t)
	for _, args := range [][]string{
		{"splitc-bench", "-p", "0"},
		{"splitc-bench", "-p", "-2"},
		{"splitc-bench", "-table", "7"},
		{"spam-trace", "-words", "5"},
		{"spam-trace", "-words", "-1"},
		{"spam-trace", "-iters", "0"},
		{"spam-trace", "-iters", "-1"},
		{"kv-bench", "-servers", "0"},
		{"kv-bench", "-nodes", "0"},
		{"kv-bench", "-reqs", "0"},
		{"kv-bench", "-batchops", "99"},
		{"kv-bench", "-servers", "1", "-chaos", "kill"},
		{"kv-bench", "-chaos", "kill", "-killat", "-5"},
		{"kv-bench", "-keys", "-5"},
		{"kv-bench", "-rate", "-1"},
		{"spam-bench", "-par", "-3", "-table", "2"},
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
		// kv-bench leaves most ranges to kv.Config.Validate, which names the
		// field; the other two check their own flags and name the flag.
		if args[0] != "kv-bench" && !strings.Contains(msg, args[1]+" must be ") {
			t.Errorf("%v: diagnosis does not name %s and its range:\n%s", args, args[1], msg)
		}
	}
}

// TestKVBenchHeaderIsTheRunConfig: the table header states the configuration
// kv ran, not a second derivation of kv's defaults. Fewer virtual clients
// than client nodes is where the two used to part.
func TestKVBenchHeaderIsTheRunConfig(t *testing.T) {
	out, err := exec.Command(filepath.Join(builtCommands(t), "kv-bench"),
		"-reqs", "200", "-rate", "50e3", "-clients", "2", "-nodes", "4").Output()
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(out), "\n")
	if !strings.Contains(header, "4 client nodes, 2 virtual clients,") {
		t.Errorf("kv-bench -clients 2 -nodes 4 header:\n%s", header)
	}
}

// goldens is the behaviour contract: every checked-in results/ file and the
// command line that regenerates it. The fast rows take under a second each
// and run in every `go test ./...`; the rest run under -golden.
var goldens = []struct {
	file string
	fast bool
	args []string
}{
	{"table3.txt", false, []string{"spam-bench", "-table", "3"}},
	{"figure3.txt", false, []string{"spam-bench", "-figure", "3"}},
	{"figure7.txt", true, []string{"mpi-bench", "-figure", "7"}},
	{"figure8.txt", true, []string{"mpi-bench", "-figure", "8"}},
	{"figure9.txt", false, []string{"mpi-bench", "-figure", "9"}},
	{"figure10.txt", true, []string{"mpi-bench", "-figure", "10"}},
	{"figure11.txt", false, []string{"mpi-bench", "-figure", "11"}},
	{"table5.txt", false, []string{"splitc-bench", "-paper"}},
	{"table6.txt", false, []string{"nas-bench"}},
	{"chaos-kill.txt", true, []string{"spam-bench", "-chaos", "kill"}},
	{"kv-tail.txt", true, []string{"kv-bench", "-reqs", "10000", "-clients", "100000"}},
	{"kv-cache.txt", true, []string{"kv-bench", "-cachetable", "-reqs", "10000", "-clients", "100000"}},
	{"kv-write.txt", false, []string{"kv-bench", "-writetable", "-reqs", "10000", "-clients", "100000"}},
}

// TestGoldens regenerates the checked-in results/ files from the current
// tree and fails on any byte difference. It is the guard that keeps the
// simulator deterministic, keeps refactors behaviour-preserving, and keeps
// observability provably free when disabled.
//
//	go test . -run TestGoldens                   # the six fast files (tier-1)
//	go test . -run TestGoldens -golden           # all 13
//	go test . -run TestGoldens -golden -par 0    # all 13, sweeps fanned over every CPU
//	go test . -run TestGoldens -golden -update   # refresh them in place
func TestGoldens(t *testing.T) {
	dir := builtCommands(t)
	for _, g := range goldens {
		if !g.fast && !*goldenAll {
			continue
		}
		t.Run(g.file, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"-par", strconv.Itoa(*goldenPar)}, g.args[1:]...)
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, g.args[0]), args...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v\n%s", g.args, err, stderr.Bytes())
			}
			path := filepath.Join("results", g.file)
			if *goldenUpdate {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from what `%s` prints now; if the change is intentional, rerun with -golden -update\n%s",
					path, strings.Join(g.args, " "), firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line at which got and want part.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + "\n  now:    " + g[i] + "\n  golden: " + w[i]
		}
	}
	return "one is a prefix of the other: " + strconv.Itoa(len(g)) + " lines now, " + strconv.Itoa(len(w)) + " in the golden"
}
