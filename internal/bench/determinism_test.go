package bench

import (
	"bytes"
	"testing"
)

// The parallel sweep runner must be invisible in the output: every command's
// generation path, rendered serially and with maximum fan-out, has to be
// byte-identical. These tests exercise the same code paths as the four
// commands (spam-bench -figure 3, mpi-bench -figure 8/9, splitc-bench,
// nas-bench) at reduced scale.

func requireSameBytes(t *testing.T, name string, render func(s Setup) []byte) {
	t.Helper()
	serial, parallel := render(Setup{Par: 1}), render(Setup{Par: 0})
	if !bytes.Equal(serial, parallel) {
		t.Errorf("%s: parallel sweep output differs from serial\nserial:\n%s\nparallel:\n%s",
			name, serial, parallel)
	}
}

func TestParallelSweepMatchesSerialAMCurves(t *testing.T) {
	sizes := SizesLog(64, 4096)
	requireSameBytes(t, "spam-bench figure-3 path", func(s Setup) []byte {
		curves := []Curve{
			AMBandwidthCurve(s, SyncStore, sizes, 1<<16),
			AMBandwidthCurve(s, AsyncStore, sizes, 1<<16),
			MPLBandwidthCurve(s, true, sizes, 1<<16),
			MPLBandwidthCurve(s, false, sizes, 1<<16),
		}
		var buf bytes.Buffer
		PrintCurves(&buf, "determinism", curves)
		return buf.Bytes()
	})
}

func TestParallelSweepMatchesSerialMPICurves(t *testing.T) {
	latSizes := []int{4, 64, 1024}
	bwSizes := SizesLog(256, 8192)
	requireSameBytes(t, "mpi-bench figure-8/9 path", func(s Setup) []byte {
		var buf bytes.Buffer
		lat := []Curve{
			MPILatencyCurve(s, MPIAMOpt, latSizes),
			MPILatencyCurve(s, MPIF, latSizes),
		}
		bw := []Curve{
			MPIBandwidthCurve(s, MPIAMOpt, bwSizes, 1<<16),
			MPIBandwidthCurve(s, MPIF, bwSizes, 1<<16),
		}
		PrintCurves(&buf, "latency", lat)
		PrintCurves(&buf, "bandwidth", bw)
		return buf.Bytes()
	})
}

func TestParallelSweepMatchesSerialTable5(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := QuickTable5()
	cfg.Keys = 1 << 10 // smallest sort that still runs every phase
	machines := Table5Machines(cfg.NProcs)
	requireSameBytes(t, "splitc-bench path", func(s Setup) []byte {
		var buf bytes.Buffer
		PrintTable5(&buf, RunTable5(s, cfg, machines), machines)
		return buf.Bytes()
	})
}

func TestParallelSweepMatchesSerialNAS(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	requireSameBytes(t, "nas-bench path", func(s Setup) []byte {
		var buf bytes.Buffer
		PrintNAS(&buf, RunNAS(s, QuickNAS()), 4)
		return buf.Bytes()
	})
}

// TestSweepOrderAndCoverage pins the contract the benches rely on: every
// index is evaluated exactly once and results land at their own index.
func TestSweepOrderAndCoverage(t *testing.T) {
	for _, par := range []int{1, 0, 3, 64} {
		got := Sweep(Setup{Par: par}, 257, func(_ Setup, i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par=%d: index %d holds %d, want %d", par, i, v, i*i)
			}
		}
	}
}
