package bench

import (
	"fmt"
	"io"

	"spam/internal/splitc"
	"spam/internal/splitc/apps"
)

// MachineFactory builds a Split-C platform with a given global heap size;
// the two SPs are observed by s. Name is the only place a machine is named.
type MachineFactory struct {
	Name string
	New  func(s Setup, heapBytes int) splitc.Platform
}

// Table5Machines returns the five machines of the paper's Split-C
// comparison, in the paper's column order.
func Table5Machines(nprocs int) []MachineFactory {
	ms := []MachineFactory{
		{"IBM SP AM", func(s Setup, h int) splitc.Platform {
			pl := splitc.NewSPAM(nprocs, h)
			s.observe(pl.Cluster, pl.Sys)
			return pl
		}},
		{"IBM SP MPL", func(s Setup, h int) splitc.Platform {
			pl := splitc.NewMPL(nprocs, h)
			s.observe(pl.Cluster, nil)
			return pl
		}},
	}
	for _, m := range splitc.Table4() {
		ms = append(ms, MachineFactory{m.Name, func(_ Setup, h int) splitc.Platform { return splitc.NewGAM(m, nprocs, h) }})
	}
	return ms
}

// Table5Config sizes the Split-C benchmark suite. The paper runs 8
// processors; mm lg is 4x4 blocks of 128x128 doubles, mm sm is 16x16
// blocks of 16x16, and the sorts move Keys 31-bit keys.
type Table5Config struct {
	NProcs int
	MMLgN  int // blocks per side, large variant
	MMLgB  int // block edge, large variant
	MMSmN  int
	MMSmB  int
	Keys   int
}

// PaperTable5 returns the paper-shaped configuration: the paper's matrix
// sizes (4x4 blocks of 128^2 and 16x16 of 16^2 doubles on 8 processors)
// with the sorts scaled to 64K keys, where the whole table takes about 16 s
// of host time serially on 2 CPUs. EXPERIMENTS.md §Table 5 gives rdxsort
// sm at 256K and 1M keys too: the machine ratios keep their order.
func PaperTable5() Table5Config {
	return Table5Config{NProcs: 8, MMLgN: 4, MMLgB: 128, MMSmN: 16, MMSmB: 16, Keys: 1 << 16}
}

// QuickTable5 returns a scaled configuration for tests and smoke runs.
func QuickTable5() Table5Config {
	return Table5Config{NProcs: 8, MMLgN: 4, MMLgB: 32, MMSmN: 8, MMSmB: 8, Keys: 1 << 14}
}

// RunTable5 executes the six Split-C benchmarks on every machine and
// returns results in row-major (benchmark, machine) order.
func RunTable5(s Setup, cfg Table5Config, machines []MachineFactory) []apps.Result {
	type benchDef struct {
		run  func(pl splitc.Platform) apps.Result
		heap int
	}
	benches := []benchDef{
		{func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, cfg.MMLgN, cfg.MMLgB) },
			apps.MatMulHeap(cfg.MMLgN, cfg.MMLgB, cfg.NProcs)},
		{func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, cfg.MMSmN, cfg.MMSmB) },
			apps.MatMulHeap(cfg.MMSmN, cfg.MMSmB, cfg.NProcs)},
		{func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, cfg.Keys, false) },
			apps.SampleSortHeap(cfg.Keys, cfg.NProcs)},
		{func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, cfg.Keys, true) },
			apps.SampleSortHeap(cfg.Keys, cfg.NProcs)},
		{func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, cfg.Keys, false) },
			apps.RadixSortHeap(cfg.Keys, cfg.NProcs)},
		{func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, cfg.Keys, true) },
			apps.RadixSortHeap(cfg.Keys, cfg.NProcs)},
	}
	// Fan the (benchmark, machine) grid across the sweep workers; the
	// row-major result order the printers rely on is preserved by index.
	// Each program names its own row.
	nm := len(machines)
	return Sweep(s, len(benches)*nm, func(s Setup, i int) apps.Result {
		b := benches[i/nm]
		return b.run(machines[i%nm].New(s, b.heap))
	})
}

// PrintTable5 writes the absolute-times table (paper Table 5) and the
// normalized compute/communication split (paper Figure 4).
func PrintTable5(w io.Writer, results []apps.Result, machines []MachineFactory) {
	byBench := map[string][]apps.Result{}
	var order []string
	for _, r := range results {
		if len(byBench[r.Bench]) == 0 {
			order = append(order, r.Bench)
		}
		byBench[r.Bench] = append(byBench[r.Bench], r)
	}

	fmt.Fprintf(w, "# Table 5: absolute execution times (seconds)\n")
	fmt.Fprintf(w, "%-14s", "benchmark")
	for _, m := range machines {
		fmt.Fprintf(w, " %12s", m.Name)
	}
	fmt.Fprintln(w)
	for _, b := range order {
		fmt.Fprintf(w, "%-14s", b)
		for _, r := range byBench[b] {
			fmt.Fprintf(w, " %12.3f", r.TotalSec)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\n# Figure 4: times normalized to IBM SP AM, split cpu/net\n")
	fmt.Fprintf(w, "%-14s %-12s %8s %8s %8s\n", "benchmark", "machine", "total", "cpu", "net")
	for _, b := range order {
		base := byBench[b][0].TotalSec // column 0 is SP AM
		for j, r := range byBench[b] {
			fmt.Fprintf(w, "%-14s %-12s %8.2f %8.2f %8.2f\n",
				b, machines[j].Name, r.TotalSec/base, r.CPUSec/base, r.CommSec/base)
		}
	}
}
