package bench

import (
	"fmt"
	"io"

	"spam/internal/nas"
)

// NASConfig sizes the Table-6 run.
type NASConfig struct {
	NProcs int
	FT     nas.FTConfig
	MG     nas.MGConfig
	LU     nas.LUConfig
	BT     nas.ADIConfig
	SP     nas.ADIConfig
}

// PaperNAS returns the scaled-class configuration for the 16-node run
// (Class A sizes and iteration counts are scaled as documented per kernel).
func PaperNAS() NASConfig {
	return NASConfig{
		NProcs: 16,
		FT:     nas.DefaultFT(),
		MG:     nas.DefaultMG(),
		LU:     nas.DefaultLU(),
		BT:     nas.DefaultBT(),
		SP:     nas.DefaultSP(),
	}
}

// QuickNAS returns a small configuration for tests.
func QuickNAS() NASConfig {
	return NASConfig{
		NProcs: 4,
		FT:     nas.FTConfig{N: 16, Iters: 2},
		MG:     nas.MGConfig{N: 32, Iters: 2, Levels: 2},
		LU:     nas.LUConfig{N: 16, Iters: 5},
		BT:     nas.ADIConfig{Name: "BT", N: 16, Iters: 5, FlopsPerPoint: 250, FacesPerSweep: 2},
		SP:     nas.ADIConfig{Name: "SP", N: 16, Iters: 10, FlopsPerPoint: 120, FacesPerSweep: 3},
	}
}

// NASRow is one Table-6 row.
type NASRow struct {
	Bench          string
	MPIF, MPIAM    float64 // seconds
	ChecksumsAgree bool
}

// RunNAS executes every kernel on MPI-F and MPI-AM (optimized) and returns
// the Table-6 rows.
func RunNAS(s Setup, cfg NASConfig) []NASRow {
	kernels := []struct {
		name string
		k    nas.Kernel
	}{
		{"BT", nas.ADI(cfg.BT)},
		{"FT", nas.FT(cfg.FT)},
		{"LU", nas.LU(cfg.LU)},
		{"MG", nas.MG(cfg.MG)},
		{"SP", nas.ADI(cfg.SP)},
	}
	// One sweep point per (kernel, implementation) run: the ten simulations
	// are independent, so they fan out across the sweep workers.
	res := Sweep(s, 2*len(kernels), func(s Setup, i int) nas.Result {
		kk, impl := kernels[i/2], [2]MPIImpl{MPIF, MPIAMOpt}[i%2]
		cluster, pts := ptRanks(s, cfg.NProcs, impl)
		return nas.Run(cluster, pts, kk.name, impl.String(), kk.k)
	})
	var rows []NASRow
	for i, kk := range kernels {
		f, a := res[2*i], res[2*i+1]
		rows = append(rows, NASRow{
			Bench: kk.name, MPIF: f.Seconds, MPIAM: a.Seconds,
			ChecksumsAgree: f.Checksum == a.Checksum,
		})
	}
	return rows
}

// PrintNAS writes the Table-6 analogue.
func PrintNAS(w io.Writer, rows []NASRow, nprocs int) {
	fmt.Fprintf(w, "# Table 6: NAS kernels (scaled class) on %d thin nodes, seconds\n", nprocs)
	fmt.Fprintf(w, "%-10s %10s %10s %8s %10s\n", "benchmark", "MPI-F", "MPI-AM", "ratio", "verified")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.3f %10.3f %8.2f %10v\n",
			r.Bench, r.MPIF, r.MPIAM, r.MPIAM/r.MPIF, r.ChecksumsAgree)
	}
}
