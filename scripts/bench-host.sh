#!/usr/bin/env bash
# bench-host.sh — run the host-time microbenchmarks and snapshot them as
# BENCH_host.json (schema spam-host-bench/v6).
#
# Two benchmark families feed the snapshot:
#   - internal/sim:  engine event-loop cost (ns/dispatch, events/sec) — the
#     numbers that bound how much scenario coverage a wall-clock budget buys.
#   - internal/am:   packet data-path cost (short echo round trip, bulk
#     store, empty poll) with -benchmem, so allocs/op is recorded; the
#     steady-state paths must read 0 allocs/op with observability off.
#   - root KVServed:  host time of the served path (one kv-bench rung per
#     op): ns/req next to the deterministic polls/req and events/req. It runs
#     whole simulations, so it takes a fixed five of them.
#
# The snapshot also times one end-to-end `splitc-bench -paper` run (the
# tier-1 Split-C table), the macro number the packet-path work optimises,
# and one served-workload point (`kv-bench -rate 100000`), whose achieved
# ops/sec and p99 are *simulated-time* quantities — deterministic, so any
# drift is a behavior change, not noise (v3 adds the "kv" member). v4 adds
# the barrier/drain microbench rows (they ride the internal/sim run) and a
# "nodepar" member: the same -paper regeneration under `-nodepar 2`, with
# the shard count and GOMAXPROCS, so the snapshot records what intra-run
# sharding costs on this host next to the serial wall it is measured
# against. v5 adds the "kv_cache" member: the same served-workload point
# under the read-mostly mix with the client read cache on, recording the
# hit rate and the cached GET p99 — also simulated-time quantities, so
# drift means a coherence-protocol change.
# v6 adds the "kv_write" member: the write-heavy mix with commit batching
# and write combining on, recording the PUT p99, the batched-PUT fraction,
# and the server-combined write count — drift here means the contention-
# relief protocol changed behavior.
#
# Every run also appends a dated one-line copy of the snapshot (plus the
# git SHA it was measured at) to results/bench-history.jsonl, so perf over
# time can be plotted straight from the log. SKIP_HISTORY=1 suppresses the
# append (bench-regress.sh sets it: comparison runs are not measurements).
#
#   scripts/bench-host.sh                 # writes BENCH_host.json
#   scripts/bench-host.sh out.json        # custom output path
#   BENCHTIME=5s scripts/bench-host.sh    # longer, steadier runs
#   SKIP_PAPER=1 scripts/bench-host.sh    # skip the end-to-end timings
#   SKIP_KV=1 scripts/bench-host.sh       # skip the served-workload point
#   SKIP_HISTORY=1 scripts/bench-host.sh  # don't touch bench-history.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_host.json}
mkdir -p "$(dirname "$out")"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test ./internal/sim/ -run '^$' -bench . -benchmem -benchtime "${BENCHTIME:-1s}" -count 1 | tee "$tmp" >&2
go test ./internal/am/ -run '^$' -bench 'ShortEcho|BulkStore|PollEmpty' -benchmem -benchtime "${BENCHTIME:-1s}" -count 1 | tee -a "$tmp" >&2
go test . -run '^$' -bench 'KVServed' -benchtime 5x -count 1 | tee -a "$tmp" >&2

paper_wall=null
nodepar_json=null
if [[ "${SKIP_PAPER:-0}" != 1 ]]; then
	bin=$(mktemp)
	go build -o "$bin" ./cmd/splitc-bench
	start=$(date +%s.%N)
	"$bin" -paper >/dev/null
	end=$(date +%s.%N)
	paper_wall=$(awk -v s="$start" -v e="$end" 'BEGIN{printf "%.3f", e-s}')
	echo "splitc-bench -paper: ${paper_wall}s wall" >&2
	gmp=${GOMAXPROCS:-$(nproc)}
	shards=2
	start=$(date +%s.%N)
	"$bin" -paper -nodepar "$shards" >/dev/null
	end=$(date +%s.%N)
	nodepar_wall=$(awk -v s="$start" -v e="$end" 'BEGIN{printf "%.3f", e-s}')
	echo "splitc-bench -paper -nodepar ${shards}: ${nodepar_wall}s wall (GOMAXPROCS=${gmp})" >&2
	nodepar_json="{\"name\": \"splitc-bench -paper -nodepar ${shards}\", \"wall_seconds\": ${nodepar_wall}, \"serial_wall_seconds\": ${paper_wall}, \"shards\": ${shards}, \"gomaxprocs\": ${gmp}}"
	rm -f "$bin"
fi

kv_json=null
kvcache_json=null
kvwrite_json=null
if [[ "${SKIP_KV:-0}" != 1 ]]; then
	kv_out=$(go run ./cmd/kv-bench -rate 100000 -reqs 20000 -clients 100000 -json)
	kv_ops=$(printf '%s\n' "$kv_out" | awk '/"name": "kv_saturation"/{f=1;next} f && /"value":/{gsub(/[",]/,"",$2); print $2; exit}')
	kv_p99=$(printf '%s\n' "$kv_out" | awk '/"name": "kv_p99@/{f=1;next} f && /"value":/{gsub(/[",]/,"",$2); print $2; exit}')
	echo "kv-bench -rate 100000: ${kv_ops} req/s achieved, p99 ${kv_p99} us (simulated)" >&2
	kv_json="{\"name\": \"kv-bench -rate 100000\", \"ops_per_sec\": ${kv_ops}, \"p99_us\": ${kv_p99}}"

	kvc_out=$(go run ./cmd/kv-bench -rate 100000 -reqs 20000 -clients 100000 -mix readmostly -json)
	kvc_hit=$(printf '%s\n' "$kvc_out" | awk '/"name": "kv_hit_rate"/{f=1;next} f && /"value":/{gsub(/[",]/,"",$2); print $2; exit}')
	kvc_p99=$(printf '%s\n' "$kvc_out" | awk '/"name": "kv_get_p99@/{f=1;next} f && /"value":/{gsub(/[",]/,"",$2); print $2; exit}')
	echo "kv-bench readmostly cached: hit rate ${kvc_hit}, GET p99 ${kvc_p99} us (simulated)" >&2
	kvcache_json="{\"name\": \"kv-bench -rate 100000 -mix readmostly\", \"hit_rate\": ${kvc_hit}, \"get_p99_us\": ${kvc_p99}}"

	kvw_out=$(go run ./cmd/kv-bench -rate 100000 -reqs 20000 -clients 100000 -mix writeheavy -json)
	kvw_p99=$(printf '%s\n' "$kvw_out" | awk '/"name": "kv_put_p99@/{f=1;next} f && /"value":/{gsub(/[",]/,"",$2); print $2; exit}')
	kvw_puts=$(printf '%s\n' "$kvw_out" | sed -n 's/.*"batched_puts": \([0-9]*\).*/\1/p' | head -1)
	kvw_comb=$(printf '%s\n' "$kvw_out" | sed -n 's/.*"combined_puts": \([0-9]*\).*/\1/p' | head -1)
	echo "kv-bench writeheavy batched: PUT p99 ${kvw_p99} us, ${kvw_puts} batched, ${kvw_comb} combined (simulated)" >&2
	kvwrite_json="{\"name\": \"kv-bench -rate 100000 -mix writeheavy\", \"put_p99_us\": ${kvw_p99}, \"batched_puts\": ${kvw_puts}, \"combined_puts\": ${kvw_comb}}"
fi

{
	echo '{'
	echo '  "schema": "spam-host-bench/v6",'
	awk '
		/^goos:/   { if (!goos)   { printf("  \"goos\": \"%s\",\n", $2); goos=1 } }
		/^goarch:/ { if (!goarch) { printf("  \"goarch\": \"%s\",\n", $2); goarch=1 } }
		/^cpu:/    { if (!cpu) { line=$0; sub(/^cpu: */, "", line); printf("  \"cpu\": \"%s\",\n", line); cpu=1 } }
	' "$tmp"
	echo '  "benchmarks": ['
	awk '
		BEGIN { first = 1 }
		/^Benchmark/ {
			name = $1
			sub(/^Benchmark/, "", name)
			sub(/-[0-9]+$/, "", name)
			ns = ""; bytes = ""; allocs = ""; ev = ""; mbs = ""; nsreq = ""; polls = ""; evreq = ""
			for (i = 2; i < NF; i++) {
				if ($(i+1) == "ns/op")     ns = $i
				if ($(i+1) == "B/op")      bytes = $i
				if ($(i+1) == "allocs/op") allocs = $i
				if ($(i+1) == "events/sec") ev = $i
				if ($(i+1) == "windows/sec") ev = $i
				if ($(i+1) == "entries/sec") ev = $i
				if ($(i+1) == "MB/s")      mbs = $i
				if ($(i+1) == "ns/req")     nsreq = $i
				if ($(i+1) == "polls/req")  polls = $i
				if ($(i+1) == "events/req") evreq = $i
			}
			if (ns == "") next
			if (!first) printf(",\n")
			first = 0
			printf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
			if (allocs != "") printf(", \"allocs_per_op\": %s", allocs)
			if (bytes != "")  printf(", \"bytes_per_op\": %s", bytes)
			if (ev != "")     printf(", \"events_per_sec\": %s", ev)
			if (mbs != "")    printf(", \"mb_per_sec\": %s", mbs)
			if (nsreq != "")  printf(", \"ns_per_req\": %s", nsreq)
			if (polls != "")  printf(", \"polls_per_req\": %s", polls)
			if (evreq != "")  printf(", \"events_per_req\": %s", evreq)
			printf("}")
		}
		END { printf("\n") }
	' "$tmp"
	echo '  ],'
	echo "  \"kv\": $kv_json,"
	echo "  \"kv_cache\": $kvcache_json,"
	echo "  \"kv_write\": $kvwrite_json,"
	echo "  \"nodepar\": $nodepar_json,"
	echo "  \"end_to_end\": {\"name\": \"splitc-bench -paper\", \"wall_seconds\": $paper_wall}"
	echo '}'
} >"$out"
echo "wrote $out" >&2

if [[ "${SKIP_HISTORY:-0}" != 1 ]]; then
	hist=results/bench-history.jsonl
	mkdir -p "$(dirname "$hist")"
	sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
	stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
	# The benchmark rows in $out each sit on one line; join them into a
	# one-line array for the append-only history log.
	rows=$(sed -n '/"benchmarks": \[/,/^  \],$/p' "$out" | sed '1d;$d;s/^ *//' | tr '\n' ' ' | sed 's/ $//')
	printf '{"schema": "spam-host-bench/v6", "date": "%s", "git_sha": "%s", "benchmarks": [%s], "kv": %s, "kv_cache": %s, "kv_write": %s, "nodepar": %s, "end_to_end": {"name": "splitc-bench -paper", "wall_seconds": %s}}\n' \
		"$stamp" "$sha" "$rows" "$kv_json" "$kvcache_json" "$kvwrite_json" "$nodepar_json" "$paper_wall" >>"$hist"
	echo "appended history row to $hist" >&2
fi
