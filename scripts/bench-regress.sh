#!/usr/bin/env bash
# bench-regress.sh — guard against host-time performance regressions.
#
# Re-runs the microbenchmark suite via bench-host.sh (end-to-end paper
# timing skipped: wall-clock on shared CI runners is too noisy to gate on)
# and compares each benchmark's ns/op against the checked-in
# BENCH_host.json. Fails if any benchmark regressed by more than FACTOR
# (default 2.0x). New benchmarks absent from the baseline pass; baseline
# entries that vanished from the current run fail, so a silently deleted
# benchmark can't hide a regression. Benchmarks that record allocs/op are
# additionally gated exactly: any rise above the checked-in snapshot fails
# (the zero-alloc data path must not quietly start allocating).
#
# The served-workload row ("kv" in the v3 schema) is gated too: kv-bench's
# achieved ops/sec and p99 are simulated-time quantities, deterministic on
# any host, so they are compared with the same factor purely to allow
# intentional protocol retuning without a baseline refresh fight.
#
# With GATE_KVCACHE=1 the script runs the served workload cached and
# uncached at the same offered load (read-mostly mix, default skew) and
# gates the client read cache's contract directly: the cached GET p99 must
# be at least KVCACHE_RATIO (default 2.0) times better than cache-off, and
# the hit rate at least KVCACHE_HITRATE (default 0.60). Both quantities are
# simulated-time, deterministic on any host — a failure is a coherence or
# eviction behavior change, never noise.
#
# With GATE_KVWRITE=1 the script runs the write-heavy mix at 200k req/s
# (default zipf 1.3 skew) with PUT coalescing + write combining on versus
# one PUT per transaction on the same code path (-batchops 1) and gates the
# contention-relief contract: the coalesced PUT p99 must be at least
# KVWRITE_RATIO (default 2.0) times better than the per-op arm, and at
# least one PUT must actually have ridden a vector of two or more.
# Simulated-time, deterministic — a failure is a protocol behavior change,
# never noise.
#
#   scripts/bench-regress.sh                    # compare vs BENCH_host.json
#   scripts/bench-regress.sh baseline.json      # custom baseline
#   FACTOR=3 scripts/bench-regress.sh           # looser threshold
#   BENCHTIME=2s scripts/bench-regress.sh       # steadier measurement
#   GATE_KVCACHE=1 scripts/bench-regress.sh     # also gate the read cache
#   GATE_KVWRITE=1 scripts/bench-regress.sh     # also gate write batching
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=${1:-BENCH_host.json}
factor=${FACTOR:-2.0}
[[ -f "$baseline" ]] || { echo "bench-regress: baseline $baseline not found" >&2; exit 1; }

cur=$(mktemp)
trap 'rm -f "$cur" "$cur.base" "$cur.now" "$cur.abase" "$cur.anow"' EXIT
SKIP_PAPER=1 SKIP_HISTORY=1 scripts/bench-host.sh "$cur"

# Both files come from bench-host.sh, so each benchmark sits on one line:
#   {"name": "X", "ns_per_op": N[, "allocs_per_op": A], ...}
extract() {
	sed -n 's/.*"name": "\([^"]*\)", "ns_per_op": \([0-9.eE+-]*\).*/\1 \2/p' "$1"
}
extract_allocs() {
	sed -n 's/.*"name": "\([^"]*\)".*"allocs_per_op": \([0-9]*\).*/\1 \2/p' "$1"
}

extract "$baseline" >"$cur.base"
extract "$cur" >"$cur.now"
extract_allocs "$baseline" >"$cur.abase"
extract_allocs "$cur" >"$cur.anow"

awk -v factor="$factor" '
	NR == FNR { base[$1] = $2; next }
	{ now[$1] = $2 }
	END {
		bad = 0
		for (n in base) {
			if (!(n in now)) {
				printf("FAIL %-24s in baseline but missing from current run\n", n)
				bad = 1
				continue
			}
			ratio = now[n] / base[n]
			status = "ok  "
			if (ratio > factor) { status = "FAIL"; bad = 1 }
			printf("%s %-24s %12.4g ns/op -> %12.4g ns/op  (%.2fx, limit %.2gx)\n",
			       status, n, base[n], now[n], ratio, factor)
		}
		for (n in now) if (!(n in base))
			printf("new  %-24s %12.4g ns/op (not in baseline)\n", n, now[n])
		exit bad
	}
' "$cur.base" "$cur.now"

# Alloc gate: exact, no slack factor. Allocation counts are deterministic
# per benchmark, so any rise above the snapshot is a real new allocation.
awk '
	NR == FNR { base[$1] = $2; next }
	{ now[$1] = $2 }
	END {
		bad = 0
		for (n in base) {
			if (!(n in now)) continue # ns/op pass already failed on this
			status = "ok  "
			if (now[n] + 0 > base[n] + 0) { status = "FAIL"; bad = 1 }
			printf("%s %-24s %4d allocs/op -> %4d allocs/op\n", status, n, base[n], now[n])
		}
		exit bad
	}
' "$cur.abase" "$cur.anow"

# Served-workload gate (kv row, schema v3): ops/sec must not fall, and p99
# must not rise, by more than the factor. A v2 baseline without the row
# passes (the next bench-host.sh refresh adds it).
extract_kv() {
	sed -n 's/.*"kv": {[^}]*"ops_per_sec": \([0-9.eE+-]*\), "p99_us": \([0-9.eE+-]*\).*/\1 \2/p' "$1"
}
kv_base=$(extract_kv "$baseline")
kv_now=$(extract_kv "$cur")
if [[ -n "$kv_base" && -n "$kv_now" ]]; then
	echo "$kv_base $kv_now" | awk -v factor="$factor" '
		{
			bad = 0
			ops_status = "ok  "; p99_status = "ok  "
			if ($3 < $1 / factor) { ops_status = "FAIL"; bad = 1 }
			if ($4 > $2 * factor) { p99_status = "FAIL"; bad = 1 }
			printf("%s kv ops/sec  %12.4g -> %12.4g  (limit %.2gx)\n", ops_status, $1, $3, factor)
			printf("%s kv p99_us   %12.4g -> %12.4g  (limit %.2gx)\n", p99_status, $2, $4, factor)
			exit bad
		}'
elif [[ -n "$kv_base" ]]; then
	echo "FAIL kv row in baseline but missing from current run" >&2
	exit 1
fi

# Read-cache gate: cached vs uncached served workload at the same offered
# load. The quantities are simulated-time, so the comparison is exact; the
# two runs differ only in -cache.
if [[ "${GATE_KVCACHE:-0}" == 1 ]]; then
	kvc_metric() { # kvc_metric <json> <name-prefix>
		printf '%s\n' "$1" | awk -v pat="\"name\": \"$2" \
			'index($0, pat){f=1;next} f && /"value":/{gsub(/[",]/,"",$2); print $2; exit}'
	}
	kvc_flags=(-rate 300000 -reqs 10000 -clients 100000 -mix readmostly -json)
	on=$(go run ./cmd/kv-bench "${kvc_flags[@]}")
	off=$(go run ./cmd/kv-bench "${kvc_flags[@]}" -cache=false)
	hit=$(kvc_metric "$on" kv_hit_rate)
	p99_on=$(kvc_metric "$on" 'kv_get_p99@')
	p99_off=$(kvc_metric "$off" 'kv_get_p99@')
	awk -v hit="$hit" -v on="$p99_on" -v off="$p99_off" \
		-v minratio="${KVCACHE_RATIO:-2.0}" -v minhit="${KVCACHE_HITRATE:-0.60}" '
		BEGIN {
			bad = 0
			ratio = off / on
			rs = (ratio >= minratio) ? "ok  " : "FAIL"
			hs = (hit >= minhit) ? "ok  " : "FAIL"
			if (rs == "FAIL" || hs == "FAIL") bad = 1
			printf("%s kv cached GET p99  %10.4g us vs %10.4g us uncached  (%.1fx, need >= %.2gx)\n",
			       rs, on, off, ratio, minratio)
			printf("%s kv cache hit rate  %10.3f  (need >= %.2f)\n", hs, hit, minhit)
			exit bad
		}'
fi

# Write-contention gate: PUT coalescing + combining vs one PUT per
# transaction on the write-heavy mix at saturation. Simulated-time, so the
# comparison is exact; the arms differ only in -batchops.
if [[ "${GATE_KVWRITE:-0}" == 1 ]]; then
	kvw_metric() { # kvw_metric <json> <name-prefix>
		printf '%s\n' "$1" | awk -v pat="\"name\": \"$2" \
			'index($0, pat){f=1;next} f && /"value":/{gsub(/[",]/,"",$2); print $2; exit}'
	}
	kvw_flags=(-rate 200000 -reqs 10000 -clients 100000 -mix writeheavy -json)
	won=$(go run ./cmd/kv-bench "${kvw_flags[@]}")
	woff=$(go run ./cmd/kv-bench "${kvw_flags[@]}" -batchops 1)
	p99w_on=$(kvw_metric "$won" 'kv_put_p99@')
	p99w_off=$(kvw_metric "$woff" 'kv_put_p99@')
	batched=$(printf '%s\n' "$won" | sed -n 's/.*"batched_puts": \([0-9]*\).*/\1/p' | head -1)
	awk -v on="$p99w_on" -v off="$p99w_off" -v batched="${batched:-0}" \
		-v minratio="${KVWRITE_RATIO:-2.0}" '
		BEGIN {
			bad = 0
			ratio = off / on
			rs = (ratio >= minratio) ? "ok  " : "FAIL"
			bs = (batched > 0) ? "ok  " : "FAIL"
			if (rs == "FAIL" || bs == "FAIL") bad = 1
			printf("%s kv batched PUT p99 %10.4g us vs %10.4g us per-op  (%.1fx, need >= %.2gx)\n",
			       rs, on, off, ratio, minratio)
			printf("%s kv batched puts    %10d  (need > 0)\n", bs, batched)
			exit bad
		}'
fi
