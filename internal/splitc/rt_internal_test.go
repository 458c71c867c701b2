package splitc

import (
	"testing"
	"testing/quick"
)

// TestPackCtlRoundTrip checks the collective-message word packing across
// the full field ranges.
func TestPackCtlRoundTrip(t *testing.T) {
	if err := quick.Check(func(genRaw uint32) bool {
		for _, kind := range []uint64{ctlUp, ctlDown} {
			a := packCtl(kind, genRaw)
			if a&0xff != kind {
				return false
			}
			if uint32(a>>8&0xffffffff) != genRaw {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTreeCoversAllRanks checks every rank appears exactly once in the
// binary collective tree for any cluster size.
func TestTreeCoversAllRanks(t *testing.T) {
	for n := 1; n <= 40; n++ {
		rt := &RT{T: &fakeTransport{n: n}}
		seen := make([]bool, n)
		var walk func(int)
		var count int
		walk = func(id int) {
			if id >= n || seen[id] {
				t.Fatalf("n=%d: node %d visited twice or out of range", n, id)
			}
			seen[id] = true
			count++
			for _, c := range rt.children(id) {
				walk(c)
			}
		}
		walk(0)
		if count != n {
			t.Fatalf("n=%d: tree reaches %d nodes", n, count)
		}
	}
}

// fakeTransport satisfies just enough of Transport for tree-shape tests.
type fakeTransport struct {
	Transport
	n int
}

func (f *fakeTransport) N() int { return f.n }
