// Command spam-bench regenerates the paper's Section-2 measurements of SP
// Active Messages against IBM MPL: Table 2 (am_request/am_reply call
// costs), Table 3 / §2.3 (round-trip latencies), and Figure 3 (bandwidth
// of blocking and non-blocking bulk transfers), and turns the traced
// per-packet event streams into the paper's latency accounting.
//
// Usage:
//
//	spam-bench -table 2      # am_request_N / am_reply_N costs
//	spam-bench -table 3      # round trips + r_inf + n_1/2 summary
//	spam-bench -figure 3     # the six bandwidth curves
//	spam-bench -ablations    # the DESIGN.md §6 design choices, one changed per row
//	spam-bench -chaos loss   # bandwidth degradation vs packet-loss rate
//	spam-bench -chaos kill   # fail-stop detection latency + goodput
//	spam-bench -breakdown    # per-stage decomposition of the 51 us round trip (-words, -iters)
//	spam-bench -gap          # per-extra-word cost attribution (Table 3 gap)
//	spam-bench -load         # queueing-delay attribution under bulk load
//
// -trace FILE and -metrics observe any mode but -gap; -timeline prints the
// -breakdown or -load run's plain-text event timeline.
package main

import (
	"flag"
	"fmt"
	"os"

	"spam/internal/bench"
	"spam/internal/trace"
)

func main() {
	table := flag.Int("table", 0, "regenerate table 2 or 3")
	figure := flag.Int("figure", 0, "regenerate figure 3")
	total := flag.Int("total", 1<<20, "bytes moved per bandwidth measurement (a multiple of 65536 with -load)")
	chaos := flag.String("chaos", "", "chaos sweep: 'loss' (bandwidth vs packet-loss rate) or 'kill' (fail-stop detection latency)")
	ablations := flag.Bool("ablations", false, "price the SP AM and MPI-AM design choices, one changed per row")
	breakdown := flag.Bool("breakdown", false, "print the per-stage round-trip decomposition of a traced ping-pong")
	gap := flag.Bool("gap", false, "attribute the per-extra-word cost (1-word vs 4-word stages)")
	load := flag.Bool("load", false, "trace a bulk-store run and print queueing-delay attribution")
	words := flag.Int("words", 1, "argument words per -breakdown request (0-4)")
	iters := flag.Int("iters", 32, "steady-state iterations -breakdown and -gap average (multiple of 16 recommended)")
	timeline := flag.Bool("timeline", false, "print the -breakdown or -load run's plain-text event timeline")
	cf := bench.StdFlags()
	flag.Parse()
	s, err := cf.Setup()
	check(err)
	check(bench.OneMode("table", "figure", "chaos", "ablations", "breakdown", "gap", "load"))
	if *table != 0 && *table != 2 && *table != 3 {
		check(fmt.Errorf("-table must be 2 or 3 (got %d)", *table))
	}
	if *figure != 0 && *figure != 3 {
		check(fmt.Errorf("-figure must be 3 (got %d)", *figure))
	}
	if *chaos != "" && *chaos != "loss" && *chaos != "kill" {
		check(fmt.Errorf("-chaos must be loss or kill (got %q)", *chaos))
	}
	if *total < 1 {
		check(fmt.Errorf("-total must be at least 1 (got %d)", *total))
	}
	if *load && *total%(1<<16) != 0 {
		check(fmt.Errorf("-total must be a multiple of -load's 64 KiB ops (got %d)", *total))
	}
	if *words < 0 || *words > 4 {
		check(fmt.Errorf("-words must be 0-4 (got %d)", *words))
	}
	if *iters < 1 {
		check(fmt.Errorf("-iters must be at least 1 (got %d)", *iters))
	}
	if *timeline && !*breakdown && !*load {
		check(fmt.Errorf("-timeline must be run with -breakdown or -load: it prints one traced run"))
	}
	if *gap && (s.Tracer != nil || s.Metrics != nil) {
		check(fmt.Errorf("-gap must be run without -trace and -metrics: it traces two ping-pongs, not one run"))
	}

	var rec *trace.Recorder // the -breakdown or -load run's events
	switch {
	case *ablations:
		bench.AblationTable(os.Stdout, s)
	case *chaos == "loss":
		bench.ChaosTable(os.Stdout, s, *total)
	case *chaos == "kill":
		bench.KillTable(os.Stdout, s)
	case *table == 2:
		fmt.Println("# Table 2: cost of am_request_N / am_reply_N calls (us)")
		fmt.Printf("%-4s %12s %12s\n", "N", "am_request", "am_reply")
		for n := 1; n <= 4; n++ {
			fmt.Printf("%-4d %12.2f %12.2f\n", n, bench.RequestCost(s, n), bench.ReplyCost(s, n))
		}
		fmt.Println("# paper: request 7.7/7.9/8.0/8.2, reply 4.0/4.1/4.3/4.4")

	case *table == 3:
		bench.WriteTable3(os.Stdout, s, *total)

	case *figure == 3:
		sizes := bench.SizesLog(16, 1<<20)
		bench.PrintCurves(os.Stdout, "Figure 3: bandwidth of blocking and non-blocking bulk transfers (MB/s)", []bench.Curve{
			bench.AMBandwidthCurve(s, bench.SyncStore, sizes, *total),
			bench.AMBandwidthCurve(s, bench.SyncGet, sizes, *total),
			bench.MPLBandwidthCurve(s, true, sizes, *total),
			bench.AMBandwidthCurve(s, bench.AsyncStore, sizes, *total),
			bench.AMBandwidthCurve(s, bench.AsyncGet, sizes, *total),
			bench.MPLBandwidthCurve(s, false, sizes, *total),
		})

	case *breakdown:
		var rtt float64
		rec, rtt = bench.TracedPingPong(s, *words, *iters)
		b, err := trace.DecomposeRoundTrip(rec.Sorted())
		check(err)
		fmt.Printf("# round-trip decomposition: %d-word SP AM ping-pong, %d steady-state iterations\n",
			*words, b.Iters)
		fmt.Printf("# measured %.3f us per round trip; the stage means below sum to it exactly\n", rtt)
		b.Write(os.Stdout)

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

	case *load:
		if s.Tracer == nil {
			s.Tracer = trace.New()
		}
		rec = s.Tracer
		mbps, _ := bench.Bandwidth(s, bench.AsyncStore, 1<<16, *total)
		fmt.Printf("# queueing attribution: async store of %d bytes in 64 KiB ops (%.2f MB/s)\n", *total, mbps)
		trace.WriteQueueing(os.Stdout, trace.PacketStageStats(rec.Sorted()))

	default:
		flag.Usage()
		os.Exit(2)
	}

	if *timeline {
		trace.WriteTimeline(os.Stdout, rec.Sorted())
	}
	check(cf.Finish(os.Stdout))
	if rec != nil {
		check(rec.Truncated()) // the tables above came from what the recorder kept
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spam-bench:", err)
		os.Exit(1)
	}
}
