package mpi

import (
	"testing"
	"testing/quick"
)

// TestHeaderRoundTrip checks the control-plane header codec, including
// negative collective tags.
func TestHeaderRoundTrip(t *testing.T) {
	if err := quick.Check(func(kindRaw uint8, tag int32, size uint32, rdv uint32) bool {
		kind := uint32(kindRaw%3) + 1
		b := make([]byte, hdrBytes)
		putHdr(b, kind, int(tag), int(size), rdv)
		gk, gt, gs, gr := readHdr(b)
		return gk == kind && gt == int(tag) && gs == int(size) && gr == rdv
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDataTagDisjointFromCtl checks rendezvous data tags never collide
// with the control plane or with each other.
func TestDataTagDisjointFromCtl(t *testing.T) {
	seen := map[int]bool{}
	for id := uint32(1); id < 2000; id++ {
		tag := dataTag(id)
		if tag == ctlTag {
			t.Fatalf("data tag for id %d collides with control tag", id)
		}
		if seen[tag] {
			t.Fatalf("duplicate data tag %d", tag)
		}
		seen[tag] = true
	}
}
