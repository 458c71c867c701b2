package load

import (
	"math"
	"testing"

	"spam/internal/sim"
)

// TestDeterminism: two generators with the same seed produce identical
// streams; different seeds diverge.
func TestDeterminism(t *testing.T) {
	a := NewGen(42, 1e6, 1<<16, 1.1, DefaultMix(), 0, 1000)
	b := NewGen(42, 1e6, 1<<16, 1.1, DefaultMix(), 0, 1000)
	c := NewGen(43, 1e6, 1<<16, 1.1, DefaultMix(), 0, 1000)
	diverged := false
	for i := 0; i < 10000; i++ {
		ga, gb, gc := a.NextGap(), b.NextGap(), c.NextGap()
		ka, kb := a.NextKey(), b.NextKey()
		oa, ob := a.NextOp(), b.NextOp()
		if ga != gb || ka != kb || oa != ob {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
		if ga != gc {
			diverged = true
		}
		b.NextValue()
		a.NextValue()
		c.NextKey()
	}
	if !diverged {
		t.Fatal("different seeds produced the same gap stream")
	}
}

// TestExponentialMean: the empirical mean interarrival must track 1/rate.
func TestExponentialMean(t *testing.T) {
	const rate = 1e6 // 1 req/us -> mean gap 1000 ns
	g := NewGen(7, rate, 1024, 0, DefaultMix(), 0, 10)
	var sum sim.Time
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.NextGap()
	}
	mean := float64(sum) / n
	if math.Abs(mean-1000) > 25 {
		t.Fatalf("mean interarrival %.1f ns, want ~1000", mean)
	}
}

// TestZipfSkew: with s=1.2 the most popular rank must dominate; the rank
// frequencies must be non-increasing (up to sampling noise at the head).
func TestZipfSkew(t *testing.T) {
	z := NewZipf(sim.NewRand(11), 1.2, 1, 1<<20)
	counts := make(map[uint64]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Uint64()]++
	}
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Fatalf("head ranks not in popularity order: %d %d %d", counts[0], counts[1], counts[2])
	}
	// Rank 0 of a Zipf(1.2) over 2^20 values carries ~9% of the mass.
	if frac := float64(counts[0]) / n; frac < 0.05 || frac > 0.2 {
		t.Fatalf("rank-0 share %.3f outside [0.05, 0.2]", frac)
	}
}

// TestUniformKeys: with s<=1 keys are uniform-ish across the keyspace.
func TestUniformKeys(t *testing.T) {
	g := NewGen(3, 1e6, 16, 0, DefaultMix(), 0, 10)
	var counts [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		counts[g.NextKey()]++
	}
	for k, c := range counts {
		if c < n/16-n/64 || c > n/16+n/64 {
			t.Fatalf("key %d drawn %d times, want ~%d", k, c, n/16)
		}
	}
}

// TestMixShares: operation draws follow the configured weights.
func TestMixShares(t *testing.T) {
	g := NewGen(5, 1e6, 1024, 0, Mix{Get: 0.5, Put: 0.5}, 0, 10)
	var gets, puts, others int
	const n = 100000
	for i := 0; i < n; i++ {
		switch g.NextOp() {
		case OpGet:
			gets++
		case OpPut:
			puts++
		default:
			others++
		}
	}
	if others != 0 {
		t.Fatalf("%d draws outside the two-op mix", others)
	}
	if gets < n/2-n/50 || gets > n/2+n/50 {
		t.Fatalf("gets = %d of %d, want ~half", gets, n)
	}
}

// TestScatterBijective: the key scatter must not collapse ranks.
func TestScatterBijective(t *testing.T) {
	seen := make(map[uint32]bool, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		v := Mix32(i)
		if seen[v] {
			t.Fatalf("Mix32 collision at rank %d", i)
		}
		seen[v] = true
	}
}

// TestClientRange: virtual-client draws stay inside the node's range.
func TestClientRange(t *testing.T) {
	g := NewGen(9, 1e6, 1024, 0, DefaultMix(), 5000, 250)
	for i := 0; i < 10000; i++ {
		c := g.NextClient()
		if c < 5000 || c >= 5250 {
			t.Fatalf("client %d outside [5000,5250)", c)
		}
	}
}

// TestWriteMixShares: the write-contention mixes draw PUTs at their
// configured weight — the property the write-relief benchmarks depend on.
func TestWriteMixShares(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  Mix
		puts float64
	}{
		{"writeheavy", WriteHeavyMix(), 0.45},
		{"updateskew", UpdateSkewMix(), 0.85},
	} {
		g := NewGen(5, 1e6, 1024, 0, tc.mix, 0, 10)
		var puts int
		const n = 100000
		for i := 0; i < n; i++ {
			if g.NextOp() == OpPut {
				puts++
			}
		}
		got := float64(puts) / n
		if math.Abs(got-tc.puts) > 0.02 {
			t.Fatalf("%s drew %.3f PUTs, want ~%.2f", tc.name, got, tc.puts)
		}
	}
}

// TestParseMixes: the sweep-list parser resolves names in order and
// rejects unknown or empty lists.
func TestParseMixes(t *testing.T) {
	names, mixes, err := ParseMixes(" writeheavy, updateskew ,default")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || len(mixes) != 3 {
		t.Fatalf("parsed %d names / %d mixes, want 3/3", len(names), len(mixes))
	}
	if names[0] != "writeheavy" || names[2] != "default" {
		t.Fatalf("names out of order: %v", names)
	}
	if mixes[1] != UpdateSkewMix() {
		t.Fatalf("updateskew resolved to %+v", mixes[1])
	}
	if _, _, err := ParseMixes("writeheavy,bogus"); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, _, err := ParseMixes(" , "); err == nil {
		t.Fatal("empty mix list accepted")
	}
}

// TestParseSkews: the skew-list parser keeps order, skips blanks, and
// rejects what Zipf cannot sample — negatives and the non-finite spellings
// strconv.ParseFloat accepts (inf spun forever, nan silently ran uniform).
func TestParseSkews(t *testing.T) {
	got, err := ParseSkews(" 1.0, ,1.3,-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1.0 || got[1] != 1.3 || got[2] != 0 {
		t.Fatalf("parsed %v, want [1 1.3 0]", got)
	}
	for _, bad := range []string{"", ",,", "x", "-1", "inf", "+Inf", "-inf", "nan", "NaN", "1e309", "1.3,infinity"} {
		if got, err := ParseSkews(bad); err == nil {
			t.Errorf("ParseSkews(%q) = %v, want an error", bad, got)
		}
	}
}

// FuzzParseSkews: any spec is either refused or yields a non-empty list of
// finite, non-negative skews.
func FuzzParseSkews(f *testing.F) {
	for _, s := range []string{"1.00,1.10,1.30,1.50", "inf", "nan", "1e309", ",,", "-0", " 0x1p-2 ,1_0", "1e-400"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		skews, err := ParseSkews(spec)
		if err != nil {
			return
		}
		if len(skews) == 0 {
			t.Fatalf("ParseSkews(%q): no error and no skews", spec)
		}
		for _, s := range skews {
			if !(s >= 0) || math.IsInf(s, 0) {
				t.Fatalf("ParseSkews(%q) let %v through", spec, s)
			}
		}
	})
}

// FuzzParseMixes: any spec is either refused or yields one known mix per
// name, each the one ParseMix gives for that name.
func FuzzParseMixes(f *testing.F) {
	for _, s := range []string{"writeheavy,updateskew", "default", ",,", " readmostly , nobatch ", "bogus", "inf", "default,,default"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		names, mixes, err := ParseMixes(spec)
		if err != nil {
			return
		}
		if len(names) == 0 || len(names) != len(mixes) {
			t.Fatalf("ParseMixes(%q): %d names, %d mixes", spec, len(names), len(mixes))
		}
		for i, n := range names {
			if m, err := ParseMix(n); err != nil || m != mixes[i] || m == (Mix{}) {
				t.Fatalf("ParseMixes(%q): name %q resolved to %+v (ParseMix: %+v, %v)", spec, n, mixes[i], m, err)
			}
		}
	})
}
