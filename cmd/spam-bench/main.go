// Command spam-bench regenerates the paper's Section-2 measurements of SP
// Active Messages against IBM MPL: Table 2 (am_request/am_reply call
// costs), Table 3 / §2.3 (round-trip latencies), and Figure 3 (bandwidth
// of blocking and non-blocking bulk transfers).
//
// Usage:
//
//	spam-bench -table 2      # am_request_N / am_reply_N costs
//	spam-bench -table 3      # round trips + r_inf + n_1/2 summary
//	spam-bench -figure 3     # the six bandwidth curves
//	spam-bench -ablations    # the DESIGN.md §6 design choices, one changed per row
//	spam-bench -chaos loss   # bandwidth degradation vs packet-loss rate
//	spam-bench -chaos kill   # fail-stop detection latency + goodput
package main

import (
	"flag"
	"fmt"
	"os"

	"spam/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "regenerate table 2 or 3")
	figure := flag.Int("figure", 0, "regenerate figure 3")
	total := flag.Int("total", 1<<20, "bytes moved per bandwidth measurement")
	chaos := flag.String("chaos", "", "chaos sweep: 'loss' (bandwidth vs packet-loss rate) or 'kill' (fail-stop detection latency)")
	ablations := flag.Bool("ablations", false, "price the SP AM and MPI-AM design choices, one changed per row")
	cf := bench.StdFlags()
	flag.Parse()
	s, err := cf.Setup()
	check(err)
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

	default:
		flag.Usage()
		os.Exit(2)
	}

	check(cf.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spam-bench:", err)
		os.Exit(1)
	}
}
