package spam

import (
	"runtime"
	"testing"

	"spam/internal/kv"
	"spam/internal/kv/load"
)

// kvServedReqs and kvServedConfig are the repo benchmark's first kv_mixed
// rung: 50k req/s offered for 0.1 simulated seconds by 4 client nodes to 4
// servers, mix 80/15/3/2, zipf 1.3.
const kvServedReqs = 5000

func kvServedConfig() kv.Config {
	return kv.Config{
		Servers: 4, ClientNodes: 4, Keys: 1 << 16, Zipf: 1.3, Mix: load.DefaultMix(),
		VirtualClients: 1 << 20, Rate: 50e3, Requests: kvServedReqs, Seed: 1,
	}
}

// BenchmarkKVServed is the host-time row of the served path: one whole
// kvServedConfig run per op, timed around Service.Run only. Its Go time is
// the result: ns/req is what a served request costs the host. The two
// counts beside it are deterministic — polls/req says how much polling a
// request buys (mostly idle at this rate), events/req how many scheduler
// events; a host-time change with both unchanged is a change in the cost
// per poll or per event, not in their number. TestKVServedEventBudget pins
// both.
func BenchmarkKVServed(b *testing.B) {
	var polls, events int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := kv.New(kvServedConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := svc.Run()
		if err != nil {
			b.Fatal(err)
		}
		polls, events = res.AM.Polls, svc.Events()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kvServedReqs), "ns/req")
	b.ReportMetric(float64(polls)/kvServedReqs, "polls/req")
	b.ReportMetric(float64(events)/kvServedReqs, "events/req")
}

// TestKVServedEventBudget pins the two deterministic proxies of the served
// path's host cost, exactly: what BenchmarkKVServed reports as 105.2
// polls/req and 155.1 events/req. Host time is noisy and judged by paired
// benchmark/run.sh runs; these counts are not, so any drift — a change that
// polls or schedules more per request, or one that is meant to elide idle
// polls — shows here first and has to move the constants on purpose. The
// second pair is the proxy for switching between the eight node programs:
// 14.9 hand-offs per request at 1.20 coroutine switches each (a run of
// back-to-back host charges is one wake-up, sim.Proc.AdvanceSeq).
func TestKVServedEventBudget(t *testing.T) {
	const wantPolls, wantEvents = 525872, 775580
	svc, err := kv.New(kvServedConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if polls, events := res.AM.Polls, svc.Events(); polls != wantPolls || events != wantEvents {
		t.Fatalf("%d requests cost %d polls and %d events, want %d and %d",
			kvServedReqs, polls, events, wantPolls, wantEvents)
	}
	const wantHandoffs, wantSwitches = 74334, 89386
	if handoffs, switches := svc.Handoffs(); handoffs != wantHandoffs || switches != wantSwitches {
		t.Fatalf("%d requests cost %d process hand-offs and %d coroutine switches, want %d and %d",
			kvServedReqs, handoffs, switches, wantHandoffs, wantSwitches)
	}
}

// BenchmarkKVNew is the host-time row of the kv set-up: one kv.New of the
// kvServedConfig shape per op, which is what benchmark/run.sh times as a kv
// rung's share of setup_s. With -benchmem, B/op is the count
// TestKVNewFootprint bounds.
func BenchmarkKVNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc, err := kv.New(kvServedConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		svc.System().Cluster.Eng.Release() // the processes New spawned and no Run will finish
		b.StartTimer()
	}
}

// TestKVNewFootprint bounds the deterministic proxy of the kv set-up cost:
// the bytes kv.New allocates for the kvServedConfig shape, 13.0 MB, of which
// the record table (Keys x Replicas records of 72 B) is 9.4 MB.
func TestKVNewFootprint(t *testing.T) {
	// One P, as TestKVServerAllocs: TotalAlloc is process-wide.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const limit = 16_000_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	svc, err := kv.New(kvServedConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	svc.System().Cluster.Eng.Release()
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("kv.New allocated %.1f MB, want at most %.1f", float64(got)/1e6, float64(limit)/1e6)
	}
}
