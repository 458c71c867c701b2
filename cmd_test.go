package spam

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	goldenAll    = flag.Bool("golden", false, "TestGoldens: regenerate all 20 results/ files (about 70 s serial), not only the 13 that take under a second")
	goldenUpdate = flag.Bool("update", false, "TestGoldens: rewrite the results/ files it regenerates instead of comparing them")
	goldenPar    = flag.Int("par", 1, "TestGoldens: the -par the commands run with (0 = one sweep worker per CPU); the bytes must not depend on it")
)

// commands builds every command under cmd/ and every example under
// examples/ once per test run, without -race whatever the test binary was
// built with, and returns the directory holding the binaries. TestMain
// removes it.
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
			commands.out, commands.err = exec.Command("go", "build", "-o", commands.dir, "./cmd/...", "./examples/...").CombinedOutput()
		}
	})
	if commands.err != nil {
		t.Fatalf("go build ./cmd/... ./examples/...: %v\n%s", commands.err, commands.out)
	}
	return commands.dir
}

// TestExamplesRun runs the three examples, which the census counts as
// callers: stencil and globalarray each compare their two implementations
// and exit 1 when they disagree.
func TestExamplesRun(t *testing.T) {
	dir := builtCommands(t)
	for _, name := range []string{"quickstart", "stencil", "globalarray"} {
		if out, err := exec.Command(filepath.Join(dir, name)).CombinedOutput(); err != nil {
			t.Errorf("%s: %v\n%s", name, err, out)
		}
	}
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
		{"spam-bench", "-words", "5", "-breakdown"},
		{"spam-bench", "-words", "-1", "-breakdown"},
		{"spam-bench", "-iters", "0", "-breakdown"},
		{"spam-bench", "-iters", "-1", "-breakdown"},
		{"kv-bench", "-servers", "0"},
		{"kv-bench", "-nodes", "0"},
		{"kv-bench", "-reqs", "0"},
		{"kv-bench", "-batchops", "99"},
		{"kv-bench", "-servers", "1", "-chaos", "kill"},
		{"kv-bench", "-chaos", "kill", "-killat", "-5"},
		{"kv-bench", "-keys", "-5"},
		{"kv-bench", "-keys", "4194305"},
		{"kv-bench", "-rate", "-1"},
		{"kv-bench", "-cachesize", "-5"},
		{"kv-bench", "-lease", "-1"},
		{"kv-bench", "-batchops", "-3"},
		{"kv-bench", "-batchwindow", "-2"},
		{"kv-bench", "-clients", "-7"},
		{"kv-bench", "-clients", "2", "-nodes", "4"},
		{"kv-bench", "-cachetable", "-writetable"},
		{"spam-bench", "-par", "-3", "-table", "2"},
		{"spam-bench", "-table", "7"},
		{"spam-bench", "-figure", "7"},
		{"spam-bench", "-chaos", "flood"},
		{"mpi-bench", "-figure", "99"},
		{"kv-bench", "-chaos", "loss"},
		{"spam-bench", "-gap", "-trace", "gap.json"},
		{"spam-bench", "-gap", "-metrics"},
		{"spam-bench", "-timeline", "-gap"},
		{"spam-bench", "-gap", "-load"},
		{"spam-bench", "-figure", "3", "-table", "2"},
		{"spam-bench", "-total", "0", "-figure", "3"},
		{"mpi-bench", "-total", "0", "-figure", "7"},
		{"spam-bench", "-total", "-5", "-load"},
		{"spam-bench", "-total", "100", "-load"},
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
		// field; the others check their own flags and name the flag.
		if args[0] != "kv-bench" && !strings.Contains(msg, args[1]+" must be ") {
			t.Errorf("%v: diagnosis does not name %s and its range:\n%s", args, args[1], msg)
		}
	}
}

// TestObservedParMatchesSerial: -trace and -metrics keep the -par they are
// given, and what they write is the serial run's, byte for byte — the kv
// ladder's five points fanned over every CPU print the same snapshot and
// write the same trace file as one after another.
func TestObservedParMatchesSerial(t *testing.T) {
	dir, tmp := builtCommands(t), t.TempDir()
	run := func(par string) (stdout, file []byte) {
		path := filepath.Join(tmp, "trace-"+par+".json")
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, "kv-bench"), "-par", par,
			"-reqs", "200", "-clients", "1000", "-metrics", "-trace", path)
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("kv-bench -par %s: %v\n%s", par, err, stderr.Bytes())
		}
		if file, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		return stdout, file
	}
	out1, file1 := run("1")
	out0, file0 := run("0")
	if !bytes.Equal(out0, out1) {
		t.Errorf("kv-bench -metrics at -par 0 differs from -par 1: %s", firstDiff(out0, out1))
	}
	if !bytes.Equal(file0, file1) {
		t.Errorf("kv-bench -trace at -par 0 wrote %d bytes, -par 1 wrote %d, and they differ", len(file0), len(file1))
	}
	if !bytes.Contains(out1, []byte("kv.issued")) || len(file1) < 1<<20 {
		t.Errorf("the observers saw too little: %d bytes of trace, snapshot:\n%s", len(file1), out1)
	}
}

// TestBreakdownObserved: -metrics and -trace compose with the round-trip
// breakdown without changing it. One run prints the golden breakdown, then
// the snapshot, and writes the trace file -breakdown -trace writes alone.
func TestBreakdownObserved(t *testing.T) {
	dir, tmp := builtCommands(t), t.TempDir()
	run := func(name string, args ...string) (stdout, file []byte) {
		path := filepath.Join(tmp, name)
		stdout, err := exec.Command(filepath.Join(dir, "spam-bench"),
			append([]string{"-breakdown", "-trace", path}, args...)...).Output()
		if err != nil {
			t.Fatalf("spam-bench -breakdown -trace %v: %v", args, err)
		}
		if file, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		return stdout, file
	}
	out, observed := run("observed.json", "-metrics")
	_, alone := run("alone.json")
	golden, err := os.ReadFile(filepath.Join("results", "trace-breakdown.txt"))
	if err != nil {
		t.Fatal(err)
	}
	snapshot, ok := bytes.CutPrefix(out, golden)
	if !ok {
		t.Errorf("-breakdown -metrics -trace does not begin with results/trace-breakdown.txt: %s", firstDiff(out, golden))
	}
	if !bytes.HasPrefix(snapshot, []byte("# protocol metrics\n")) || !bytes.Contains(snapshot, []byte("am.polls ")) {
		t.Errorf("no protocol metrics snapshot after the breakdown:\n%s", snapshot)
	}
	if !bytes.Equal(observed, alone) {
		t.Errorf("-metrics changed the trace file: %d bytes with it, %d without", len(observed), len(alone))
	}
}

// goldens is the behaviour contract, and the only route from a command to a
// published number: every checked-in results/ file and the command line that
// regenerates it. The fast rows take under a second each and run in every
// `go test ./...`; the rest run under -golden.
var goldens = []struct {
	file string
	fast bool
	args []string
}{
	{file: "table2.txt", fast: true, args: []string{"spam-bench", "-table", "2"}},
	{file: "table3.txt", args: []string{"spam-bench", "-table", "3"}},
	{file: "figure3.txt", args: []string{"spam-bench", "-figure", "3"}},
	{file: "ablations.txt", fast: true, args: []string{"spam-bench", "-ablations"}},
	{file: "trace-breakdown.txt", fast: true, args: []string{"spam-bench", "-breakdown"}},
	{file: "trace-gap.txt", fast: true, args: []string{"spam-bench", "-gap"}},
	{file: "trace-load.txt", fast: true, args: []string{"spam-bench", "-load"}},
	{file: "figure7.txt", fast: true, args: []string{"mpi-bench", "-figure", "7"}},
	{file: "figure8.txt", fast: true, args: []string{"mpi-bench", "-figure", "8"}},
	{file: "figure9.txt", args: []string{"mpi-bench", "-figure", "9"}},
	{file: "figure10.txt", fast: true, args: []string{"mpi-bench", "-figure", "10"}},
	{file: "figure11.txt", args: []string{"mpi-bench", "-figure", "11"}},
	{file: "table5.txt", args: []string{"splitc-bench", "-paper"}},
	{file: "table6.txt", args: []string{"nas-bench"}},
	{file: "chaos-loss.txt", fast: true, args: []string{"spam-bench", "-chaos", "loss"}},
	{file: "chaos-kill.txt", fast: true, args: []string{"spam-bench", "-chaos", "kill", "-metrics"}},
	{file: "kv-tail.txt", fast: true, args: []string{"kv-bench", "-reqs", "10000", "-clients", "100000"}},
	{file: "kv-cache.txt", fast: true, args: []string{"kv-bench", "-cachetable", "-reqs", "10000", "-clients", "100000"}},
	{file: "kv-write.txt", args: []string{"kv-bench", "-writetable", "-reqs", "10000", "-clients", "100000"}},
	{file: "kv-kill.txt", fast: true, args: []string{"kv-bench", "-chaos", "kill", "-reqs", "10000", "-clients", "100000"}},
}

// goldenTableIsComplete keeps the table honest in both directions: a file
// under results/ that no row regenerates is a number nothing guards, a row
// without its file guards nothing, and every results/ file an EXPERIMENTS.md
// `guard:` line names must be a row. A section of EXPERIMENTS.md that prints
// a table (a markdown one, or command output in an untagged fence) without a
// `guard:` line fails too.
func goldenTableIsComplete(t *testing.T) {
	rows := map[string]bool{}
	for _, g := range goldens {
		if rows[g.file] {
			t.Errorf("results/%s has two rows", g.file)
		}
		rows[g.file] = true
		if _, err := os.Stat(filepath.Join("results", g.file)); err != nil && !*goldenUpdate {
			t.Errorf("row %v has no file: %v", g.args, err)
		}
	}
	files, err := os.ReadDir("results")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !rows[f.Name()] {
			t.Errorf("results/%s has no row in goldens: nothing regenerates or compares it", f.Name())
		}
	}

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile("results/([a-z0-9-]+\\.txt)")
	section, hasTable, guarded := "", false, false
	closeSection := func() {
		if hasTable && !guarded {
			t.Errorf("EXPERIMENTS.md %q prints a table and has no `guard:` line", section)
		}
	}
	fenced := false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
			hasTable = hasTable || fenced && line == "```" // an untagged fence opens: command output
		case fenced:
		case strings.HasPrefix(line, "## "):
			closeSection()
			section, hasTable, guarded = line, false, false
		case strings.HasPrefix(line, "|---"):
			hasTable = true
		case strings.Contains(line, "guard:"):
			guarded = true
			for _, m := range named.FindAllStringSubmatch(line, -1) {
				if !rows[m[1]] {
					t.Errorf("EXPERIMENTS.md %q: guard names results/%s, which is not a goldens row", section, m[1])
				}
			}
		}
	}
	closeSection()
}

// TestGoldens regenerates the checked-in results/ files from the current
// tree and fails on any byte difference. It is the guard that keeps the
// simulator deterministic, keeps refactors behaviour-preserving, and keeps
// observability provably free when disabled.
//
//	go test . -run TestGoldens                   # the 13 fast files (tier-1)
//	go test . -run TestGoldens -golden           # all 20
//	go test . -run TestGoldens -golden -par 0    # all 20, sweeps fanned over every CPU
//	go test . -run TestGoldens -golden -update   # refresh them in place
func TestGoldens(t *testing.T) {
	t.Run("table", goldenTableIsComplete)
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
