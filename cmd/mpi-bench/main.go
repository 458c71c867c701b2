// Command mpi-bench regenerates the paper's Section-4 MPI measurements:
// Figure 7 (buffered vs rendezvous vs hybrid protocol bandwidth), Figures
// 8/9 (point-to-point latency and bandwidth on thin nodes: am_store,
// unoptimized MPI-AM, optimized MPI-AM, MPI-F), and Figures 10/11 (the
// same on wide nodes).
//
// Usage:
//
//	mpi-bench -figure 7
//	mpi-bench -figure 8    # thin-node per-hop latency
//	mpi-bench -figure 9    # thin-node bandwidth
//	mpi-bench -figure 10   # wide-node per-hop latency
//	mpi-bench -figure 11   # wide-node bandwidth
package main

import (
	"flag"
	"fmt"
	"os"

	"spam/internal/bench"
)

func main() {
	figure := flag.Int("figure", 0, "figure to regenerate (7-11)")
	total := flag.Int("total", 1<<20, "bytes per bandwidth measurement")
	cf := bench.StdFlags()
	flag.Parse()
	s, err := cf.Setup()
	check(err)
	if *figure != 0 && (*figure < 7 || *figure > 11) {
		check(fmt.Errorf("-figure must be 7-11 (got %d)", *figure))
	}
	if *total < 1 {
		check(fmt.Errorf("-total must be at least 1 (got %d)", *total))
	}

	latSizes := []int{4, 16, 64, 100, 256, 1024, 4096, 8192, 16384, 65536}
	bwSizes := bench.SizesLog(64, 1<<18)

	printLat := func(title string, curves []bench.Curve) {
		fmt.Printf("# %s\n", title)
		fmt.Printf("%10s", "bytes")
		for _, c := range curves {
			fmt.Printf(" %26s", c.Name)
		}
		fmt.Println()
		for i := range curves[0].Points {
			fmt.Printf("%10d", curves[0].Points[i].N)
			for _, c := range curves {
				fmt.Printf(" %26.1f", c.Points[i].MBps)
			}
			fmt.Println()
		}
	}

	// Figures 8/9 are the thin nodes, 10/11 the same series on wide ones.
	s.Wide = *figure >= 10
	where := "thin"
	if s.Wide {
		where = "wide"
	}
	series := []bench.MPIImpl{bench.AMStoreRaw, bench.MPIAMUnopt, bench.MPIAMOpt, bench.MPIF}
	var curves []bench.Curve

	switch *figure {
	case 7:
		bench.PrintCurves(os.Stdout, "Figure 7: performance of buffered and rendezvous protocols (MB/s)", []bench.Curve{
			bench.MPIBandwidthCurve(s, bench.MPIBufferedOnly, bench.SizesLog(64, 16<<10), *total),
			bench.MPIBandwidthCurve(s, bench.MPIRdvOnly, bwSizes, *total),
			bench.MPIBandwidthCurve(s, bench.MPIHybrid, bwSizes, *total),
		})

	case 8, 10:
		for _, impl := range series {
			curves = append(curves, bench.MPILatencyCurve(s, impl, latSizes))
		}
		printLat(fmt.Sprintf("Figure %d: MPI per-hop latency on %s SP nodes (us, 4-node ring)", *figure, where), curves)

	case 9, 11:
		for _, impl := range series {
			curves = append(curves, bench.MPIBandwidthCurve(s, impl, bwSizes, *total))
		}
		bench.PrintCurves(os.Stdout,
			fmt.Sprintf("Figure %d: MPI point-to-point bandwidth on %s SP nodes (MB/s)", *figure, where), curves)

	default:
		flag.Usage()
		os.Exit(2)
	}

	check(cf.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpi-bench:", err)
		os.Exit(1)
	}
}
