// Command splitc-bench regenerates the paper's Section-3 Split-C
// comparison: Table 4 (the machines' parameters), Table 5 (absolute
// benchmark times on five machines), and Figure 4 (the same normalized to
// the SP with a computation/communication split).
//
// Usage:
//
//	splitc-bench -table 4
//	splitc-bench            # quick-scale Table 5 + Figure 4
//	splitc-bench -paper     # paper-scale sizes (slower)
package main

import (
	"flag"
	"fmt"
	"os"

	"spam/internal/bench"
	"spam/internal/splitc"
)

func main() {
	table := flag.Int("table", 5, "table to regenerate (4 or 5)")
	paper := flag.Bool("paper", false, "use paper-scale problem sizes")
	procs := flag.Int("p", 8, "number of processors")
	cf := bench.StdFlags()
	flag.Parse()
	s, err := cf.Setup()
	check(err)
	if *procs < 1 {
		check(fmt.Errorf("-p must be at least 1 (got %d)", *procs))
	}
	if *table != 4 && *table != 5 {
		check(fmt.Errorf("-table must be 4 or 5 (got %d)", *table))
	}

	if *table == 4 {
		fmt.Println("# Table 4: machine characteristics (model inputs)")
		fmt.Printf("%-12s %10s %12s %12s %10s\n", "machine", "overhead", "round-trip", "bandwidth", "cpu-scale")
		for _, m := range splitc.Table4() {
			fmt.Printf("%-12s %8.1fus %10.1fus %9.0fMB/s %10.1f\n",
				m.Name, (m.OSend + m.ORecv).Microseconds(),
				(2*(m.OSend+m.ORecv) + 2*m.Latency).Microseconds(), m.MBps, m.CPUScale)
		}
		fmt.Println("IBM SP: full hardware model (see internal/hw); AM round-trip 51us, 34.3MB/s")
		check(cf.Finish(os.Stdout))
		return
	}

	cfg := bench.QuickTable5()
	if *paper {
		cfg = bench.PaperTable5()
	}
	cfg.NProcs = *procs
	machines := bench.Table5Machines(cfg.NProcs)
	fmt.Printf("# Split-C benchmarks on %d processors (keys=%d, mm %dx%d blocks of %d^2 and %dx%d of %d^2)\n",
		cfg.NProcs, cfg.Keys, cfg.MMLgN, cfg.MMLgN, cfg.MMLgB, cfg.MMSmN, cfg.MMSmN, cfg.MMSmB)
	results := bench.RunTable5(s, cfg, machines)
	bench.PrintTable5(os.Stdout, results, machines)
	check(cf.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitc-bench:", err)
		os.Exit(1)
	}
}
