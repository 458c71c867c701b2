package apps_test

import (
	"encoding/binary"
	"sort"
	"testing"

	"spam/internal/sim"
	"spam/internal/splitc"
	"spam/internal/splitc/apps"
)

type factory struct {
	name string
	mk   func(heap int) splitc.Platform
}

func factories(n int) []factory {
	return []factory{
		{"spam", func(h int) splitc.Platform { return splitc.NewSPAM(n, h) }},
		{"mpl", func(h int) splitc.Platform { return splitc.NewMPL(n, h) }},
		{"cm5", func(h int) splitc.Platform { return splitc.NewGAM(splitc.CM5(), n, h) }},
		{"cs2", func(h int) splitc.Platform { return splitc.NewGAM(splitc.CS2(), n, h) }},
	}
}

// recorder is a Platform that keeps each node's global segment from its
// last Run, so a test can read every segment after a program.
type recorder struct {
	splitc.Platform
	mems [][]byte
}

func (r *recorder) Run(program func(p *sim.Proc, rt *splitc.RT)) sim.Time {
	r.mems = make([][]byte, r.N())
	return r.Platform.Run(func(p *sim.Proc, rt *splitc.RT) {
		r.mems[rt.ID()] = rt.Mem()
		program(p, rt)
	})
}

func TestMatMulCorrectAllPlatforms(t *testing.T) {
	const nblk, bsize, P = 4, 8, 4
	want := apps.MatMulSerialChecksum(nblk, bsize)
	for _, f := range factories(P) {
		pl := f.mk(apps.MatMulHeap(nblk, bsize, P))
		res := apps.MatMul(pl, nblk, bsize)
		if res.Checksum != want {
			t.Errorf("%s: mm checksum %d, want %d", f.name, res.Checksum, want)
		}
		if res.TotalSec <= 0 || res.CommSec < 0 || res.CPUSec <= 0 {
			t.Errorf("%s: bad timing split %+v", f.name, res)
		}
	}
}

func verifySampleSorted(t *testing.T, name string, pl splitc.Platform, total int, bulk bool) {
	t.Helper()
	P := pl.N()
	rec := &recorder{Platform: pl}
	res := apps.SampleSort(rec, total, bulk)

	// Conservation: sum of sorted keys equals sum of generated keys.
	var want uint64
	n := total / P
	for r := 0; r < P; r++ {
		rng := sim.NewRand(uint64(r)*2654435761 + 12345)
		for i := 0; i < n; i++ {
			want += uint64(uint32(rng.Int31()))
		}
	}
	if res.Checksum != want {
		t.Errorf("%s: key sum %d, want %d (keys lost or duplicated)", name, res.Checksum, want)
	}

	// Sortedness: each node's run is sorted and boundaries are ordered.
	offKeys, offCounts := apps.SampleSortLayout(total, P)
	var prev uint32
	for pid, mem := range rec.mems {
		cnt := int(binary.LittleEndian.Uint32(mem[offCounts+pid*4:]))
		for i := 0; i < cnt; i++ {
			k := binary.LittleEndian.Uint32(mem[offKeys+4*i:])
			if k < prev {
				t.Fatalf("%s: key order violated at proc %d idx %d", name, pid, i)
			}
			prev = k
		}
	}
}

func TestSampleSortSmallAllPlatforms(t *testing.T) {
	const total, P = 2048, 4
	for _, f := range factories(P) {
		pl := f.mk(apps.SampleSortHeap(total, P))
		verifySampleSorted(t, f.name+"/sm", pl, total, false)
	}
}

func TestSampleSortBulkAllPlatforms(t *testing.T) {
	const total, P = 2048, 4
	for _, f := range factories(P) {
		pl := f.mk(apps.SampleSortHeap(total, P))
		verifySampleSorted(t, f.name+"/lg", pl, total, true)
	}
}

func verifyRadixSorted(t *testing.T, name string, pl splitc.Platform, total int, bulk bool) {
	t.Helper()
	P := pl.N()
	n := total / P
	rec := &recorder{Platform: pl}
	res := apps.RadixSort(rec, total, bulk)

	var want uint64
	for r := 0; r < P; r++ {
		rng := sim.NewRand(uint64(777+r)*2654435761 + 12345)
		for i := 0; i < n; i++ {
			want += uint64(uint32(rng.Uint64()))
		}
	}
	if res.Checksum != want {
		t.Errorf("%s: key sum %d, want %d", name, res.Checksum, want)
	}

	var all []uint32
	for _, mem := range rec.mems {
		for i := 0; i < n; i++ {
			all = append(all, binary.LittleEndian.Uint32(mem[4*i:]))
		}
	}
	if !sort.SliceIsSorted(all, func(a, b int) bool { return all[a] < all[b] }) {
		t.Fatalf("%s: global key sequence not sorted", name)
	}
}

func TestRadixSortSmallAllPlatforms(t *testing.T) {
	const total, P = 2048, 4
	for _, f := range factories(P) {
		pl := f.mk(apps.RadixSortHeap(total, P))
		verifyRadixSorted(t, f.name+"/sm", pl, total, false)
	}
}

func TestRadixSortBulkAllPlatforms(t *testing.T) {
	const total, P = 2048, 4
	for _, f := range factories(P) {
		pl := f.mk(apps.RadixSortHeap(total, P))
		verifyRadixSorted(t, f.name+"/lg", pl, total, true)
	}
}

func TestSmallVsBulkShape(t *testing.T) {
	// The paper's central Split-C claim, in miniature: over MPL the
	// fine-grained variant suffers far more than over AM.
	const total, P = 4096, 4
	amSm := apps.SampleSort(splitc.NewSPAM(P, apps.SampleSortHeap(total, P)), total, false)
	amLg := apps.SampleSort(splitc.NewSPAM(P, apps.SampleSortHeap(total, P)), total, true)
	mplSm := apps.SampleSort(splitc.NewMPL(P, apps.SampleSortHeap(total, P)), total, false)
	mplLg := apps.SampleSort(splitc.NewMPL(P, apps.SampleSortHeap(total, P)), total, true)

	if !(mplSm.TotalSec > amSm.TotalSec*1.5) {
		t.Errorf("fine-grained: MPL (%.4fs) should be much slower than AM (%.4fs)",
			mplSm.TotalSec, amSm.TotalSec)
	}
	ratioSm := mplSm.TotalSec / amSm.TotalSec
	ratioLg := mplLg.TotalSec / amLg.TotalSec
	if ratioLg >= ratioSm {
		t.Errorf("bulk variant should close the MPL/AM gap: sm ratio %.2f, lg ratio %.2f",
			ratioSm, ratioLg)
	}
}
