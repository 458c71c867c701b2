// Command spam-trace is the observability front end of the repro: it runs
// traced versions of the paper's micro-benchmarks and turns the per-packet
// event streams into the paper's latency accounting.
//
//	spam-trace -breakdown            # per-stage decomposition of the 51 us round trip
//	spam-trace -breakdown -words 4   # same with 4-word messages
//	spam-trace -gap                  # per-extra-word cost attribution (Table 3 gap)
//	spam-trace -load                 # queueing-delay attribution under bulk load
//	spam-trace -metrics              # protocol metrics snapshot of a ping-pong run
//	spam-trace -out trace.json       # Chrome trace-event file (Perfetto-loadable)
//	spam-trace -timeline             # plain-text event timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spam/internal/bench"
	"spam/internal/trace"
)

func main() {
	breakdown := flag.Bool("breakdown", false, "print the per-stage round-trip decomposition (default)")
	words := flag.Int("words", 1, "argument words per request (0-4)")
	iters := flag.Int("iters", 32, "steady-state iterations to average (multiple of 16 recommended)")
	gap := flag.Bool("gap", false, "attribute the per-extra-word cost (1-word vs 4-word stages)")
	load := flag.Bool("load", false, "trace a bulk-store run and print queueing-delay attribution")
	metrics := flag.Bool("metrics", false, "print the protocol metrics snapshot of a traced ping-pong")
	out := flag.String("out", "", "write the run's Chrome trace-event JSON to this file")
	timeline := flag.Bool("timeline", false, "print the run's plain-text event timeline")
	total := flag.Int("total", 1<<20, "bytes moved by the -load run (a multiple of its 64 KiB ops)")
	flag.Parse()
	if *words < 0 || *words > 4 {
		check(fmt.Errorf("-words must be 0-4 (got %d)", *words))
	}
	if *iters < 1 {
		check(fmt.Errorf("-iters must be at least 1 (got %d)", *iters))
	}
	if *total < 1 || *total%(1<<16) != 0 {
		check(fmt.Errorf("-total must be a positive multiple of 65536 (got %d)", *total))
	}
	var modes []string // every bool flag but -timeline picks a mode
	flag.Visit(func(f *flag.Flag) {
		if on, _ := f.Value.(flag.Getter).Get().(bool); on && f.Name != "timeline" {
			modes = append(modes, "-"+f.Name)
		}
	})
	if len(modes) > 1 {
		check(fmt.Errorf("%s must be the only mode flag (got %s)", modes[0], strings.Join(modes, " ")))
	}
	if *gap && (*out != "" || *timeline) {
		check(fmt.Errorf("-gap must be run without -out and -timeline: it traces two ping-pongs, not one run"))
	}

	var rec *trace.Recorder

	switch {
	case *gap:
		b1, err := bench.PingPongBreakdown(1, *iters)
		check(err)
		b4, err := bench.PingPongBreakdown(4, *iters)
		check(err)
		fmt.Printf("# per-extra-word cost attribution: %d-word vs 1-word round trip, %d iterations\n", 4, *iters)
		fmt.Printf("# (the reply echoes the request's words, so every extra word rides both legs)\n")
		trace.WriteGap(os.Stdout, b1, b4, 3)
		fmt.Printf("# paper reads ~0.5 us/word off one leg; both legs make the measured ~%.2f us/word\n",
			(b4.TotalUS-b1.TotalUS)/3)
		return

	case *load:
		rec = trace.New()
		mbps, _ := bench.Bandwidth(bench.Setup{Tracer: rec}, bench.AsyncStore, 1<<16, *total)
		fmt.Printf("# queueing attribution: async store of %d bytes in 64 KiB ops (%.2f MB/s)\n", *total, mbps)
		trace.WriteQueueing(os.Stdout, trace.PacketStageStats(rec.Sorted()))

	case *metrics:
		reg := trace.NewRegistry()
		var rtt float64
		rec, rtt = bench.TracedPingPong(bench.Setup{Metrics: reg}, *words, *iters)
		fmt.Printf("# protocol metrics: %d-word ping-pong, %d iterations, %.1f us/rtt\n", *words, *iters, rtt)
		trace.WriteMetrics(os.Stdout, reg.Snapshot())

	default:
		*breakdown = true
		fallthrough
	case *breakdown:
		var rtt float64
		rec, rtt = bench.TracedPingPong(bench.Setup{}, *words, *iters)
		b, err := trace.DecomposeRoundTrip(rec.Sorted())
		check(err)
		fmt.Printf("# round-trip decomposition: %d-word SP AM ping-pong, %d steady-state iterations\n",
			*words, b.Iters)
		fmt.Printf("# measured %.3f us per round trip; the stage means below sum to it exactly\n", rtt)
		b.Write(os.Stdout)
	}

	if *timeline {
		trace.WriteTimeline(os.Stdout, rec.Sorted())
	}
	if *out != "" {
		check(bench.WriteTrace(*out, rec))
	}
	check(rec.Truncated()) // the tables above came from what the recorder kept
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spam-trace:", err)
		os.Exit(1)
	}
}
