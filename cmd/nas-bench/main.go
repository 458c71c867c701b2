// Command nas-bench regenerates the paper's Table 6: the NAS kernels (BT,
// FT, LU, MG, SP) on 16 thin SP nodes under MPI-F and MPI-AM, with
// cross-implementation checksum verification.
//
// Usage:
//
//	nas-bench          # 16-node scaled-class run
//	nas-bench -quick   # small smoke configuration
package main

import (
	"flag"
	"fmt"
	"os"

	"spam/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "small smoke configuration")
	cf := bench.StdFlags()
	flag.Parse()
	s, err := cf.Setup()
	check(err)

	cfg := bench.PaperNAS()
	if *quick {
		cfg = bench.QuickNAS()
	}
	bench.PrintNAS(os.Stdout, bench.RunNAS(s, cfg), cfg.NProcs)
	check(cf.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nas-bench:", err)
		os.Exit(1)
	}
}
