package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"spam/internal/kv"
	"spam/internal/kv/load"
)

// TestKVReportJSONRoundTrip runs a small kv sweep through WriteJSONReport and
// parses the bytes back: the kv members (kv_cache, kv_classes, kv_write)
// must survive the trip with consistent accounting, so consumers of
// `kv-bench -json` (CI uploads one as an artifact) can rely on the layout.
func TestKVReportJSONRoundTrip(t *testing.T) {
	base := kv.Config{
		Servers:     3,
		ClientNodes: 3,
		Keys:        1 << 12,
		Requests:    2000,
		Zipf:        1.3,
		Mix:         load.ReadMostlyMix(),
		Seed:        7,
	}
	var buf bytes.Buffer
	if err := WriteJSONReport(&buf, KVReport(base, []float64{100e3})); err != nil {
		t.Fatal(err)
	}
	var got JSONReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("report does not parse back: %v\n%s", err, buf.String())
	}
	if got.Schema != JSONSchemaVersion || JSONSchemaVersion != 3 {
		t.Fatalf("schema = %d, want %d", got.Schema, JSONSchemaVersion)
	}
	if got.Command != "kv-bench" {
		t.Fatalf("command = %q", got.Command)
	}
	names := map[string]bool{}
	for _, m := range got.Metrics {
		names[m.Name] = true
	}
	if !names["kv_saturation"] || !names["kv_hit_rate"] {
		t.Fatalf("missing kv metrics in %v", got.Metrics)
	}
	if got.KVCache == nil {
		t.Fatal("kv_cache member absent from a kv report")
	}
	if got.KVWrite == nil {
		t.Fatal("kv_write member absent from a kv report")
	}
	if w := got.KVWrite; w.BatchedPuts < 0 || w.CombinedPuts > w.BatchedPuts ||
		(w.Batches > 0 && w.AvgBatchSize < 1) {
		t.Fatalf("implausible write accounting: %+v", w)
	}
	c := got.KVCache
	if c.Hits == 0 || c.HitRate <= 0 || c.HitRate > 1 {
		t.Fatalf("implausible cache accounting: %+v", c)
	}
	if len(got.KVClasses) != 3 {
		t.Fatalf("kv_classes has %d rows, want 3 (all/get/write)", len(got.KVClasses))
	}
	var all, gets, writes KVClassJSON
	for _, cl := range got.KVClasses {
		switch cl.Class {
		case "all":
			all = cl
		case "get":
			gets = cl
		case "write":
			writes = cl
		default:
			t.Fatalf("unknown class %q", cl.Class)
		}
		if cl.Count <= 0 || cl.P50us <= 0 || cl.P99us < cl.P50us || cl.P999us < cl.P99us {
			t.Fatalf("implausible class row: %+v", cl)
		}
	}
	if all.Count != gets.Count+writes.Count {
		t.Fatalf("class counts don't partition: all=%d get=%d write=%d", all.Count, gets.Count, writes.Count)
	}
	// The classes partition the GETs: hits + misses + stale + coalesced
	// must equal the GET class count.
	if sum := c.Hits + c.Misses + c.Stale + c.Coalesced; sum != gets.Count {
		t.Fatalf("cache classes sum to %d, GET count is %d", sum, gets.Count)
	}
}

// TestNonKVReportOmitsCacheMembers: reports from the other commands must not
// grow the kv-only members — absent means "not a kv run".
func TestNonKVReportOmitsCacheMembers(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONReport(&buf, Table2Report()); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("kv_cache")) || bytes.Contains(buf.Bytes(), []byte("kv_classes")) ||
		bytes.Contains(buf.Bytes(), []byte("kv_write")) {
		t.Fatalf("non-kv report leaked kv members:\n%s", buf.String())
	}
	var got JSONReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.KVCache != nil || got.KVClasses != nil {
		t.Fatal("non-kv report carries kv members after parse-back")
	}
}
