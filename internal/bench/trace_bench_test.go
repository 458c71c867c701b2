package bench

import (
	"bytes"
	"math"
	"testing"

	"spam/internal/trace"
)

// TestBreakdownMatchesPaper is the paper's §2.3 accounting: the traced
// 1-word round trip decomposes into stages whose means sum exactly to the
// measured round-trip time, and that time is the paper's ~51 us.
func TestBreakdownMatchesPaper(t *testing.T) {
	rec, rtt := TracedPingPong(Setup{}, 1, 32)
	b, err := trace.DecomposeRoundTrip(rec.Sorted())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Stages) != trace.NumStages {
		t.Fatalf("%d stages, want %d", len(b.Stages), trace.NumStages)
	}
	if math.Abs(b.TotalUS-rtt) > 1e-6 {
		t.Fatalf("stage sum %.6f != measured round trip %.6f", b.TotalUS, rtt)
	}
	if math.Abs(rtt-51.1) > 0.1 {
		t.Fatalf("round trip %.3f us, want 51.1 +/- 0.1 (paper: 51.0)", rtt)
	}
	var sum float64
	for _, s := range b.Stages {
		if s.MeanUS < 0 {
			t.Fatalf("stage %q has negative mean %.3f", s.Name, s.MeanUS)
		}
		sum += s.MeanUS
	}
	if math.Abs(sum-b.TotalUS) > 1e-9 {
		t.Fatalf("stage means sum %.9f != TotalUS %.9f", sum, b.TotalUS)
	}
}

// TestPerWordGap reproduces the Table-3 observation the trace explains:
// each extra request word costs ~0.9 us of round trip (not the ~0.5 us a
// one-way reading of the paper's DMA numbers suggests), because the ping
// handler echoes the arguments so every extra word crosses the wire twice.
func TestPerWordGap(t *testing.T) {
	b1, err := PingPongBreakdown(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := PingPongBreakdown(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	perWord := (b4.TotalUS - b1.TotalUS) / 3
	if perWord < 0.8 || perWord > 1.0 {
		t.Fatalf("per-extra-word cost %.3f us, want ~0.9", perWord)
	}
}

// TestTraceDeterminism runs the same traced benchmark twice and requires the
// exported Chrome trace files to be byte-identical: the simulation, the
// recorder, and the exporter are all deterministic.
func TestTraceDeterminism(t *testing.T) {
	export := func() []byte {
		rec, _ := TracedPingPong(Setup{}, 2, 16)
		var buf bytes.Buffer
		if err := trace.WriteChromeTrace(&buf, rec.Sorted()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical traced runs exported different bytes (%d vs %d)", len(a), len(b))
	}
}

// TestTracedBandwidthRecordsLoad checks the load-tracing path used for
// queueing attribution (spam-bench -load): a bulk transfer with a recorder
// in its Setup records full packet lifecycles.
func TestTracedBandwidthRecordsLoad(t *testing.T) {
	rec := trace.New()
	mbps, _ := Bandwidth(Setup{Tracer: rec}, AsyncStore, 1<<14, 1<<16)
	if mbps <= 0 {
		t.Fatalf("bandwidth = %f", mbps)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded under load")
	}
	stats := trace.PacketStageStats(rec.Sorted())
	for _, s := range stats {
		if s.Count == 0 {
			t.Fatalf("stage %q saw no packets", s.Name)
		}
	}
}
