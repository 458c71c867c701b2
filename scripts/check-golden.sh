#!/usr/bin/env bash
# check-golden.sh — regenerate every checked-in results/*.txt from the
# current tree and fail on any byte difference. This is the guard that
# keeps the simulator deterministic and keeps observability changes
# (tracing, metrics) provably free when disabled.
#
#   scripts/check-golden.sh            # verify (CI mode)
#   scripts/check-golden.sh -update    # refresh the goldens in place
#   scripts/check-golden.sh -par N     # fan sweeps across N workers (0 = all
#                                      # CPUs); output must stay byte-identical
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
par=1
while [ $# -gt 0 ]; do
	case "$1" in
	-update) update=1 ;;
	-par)
		shift
		par=$1
		;;
	*)
		echo "usage: $0 [-update] [-par N]" >&2
		exit 2
		;;
	esac
	shift
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build ./...

gen() { # gen <name> <command...>
	local name=$1
	shift
	echo "  gen $name: $*"
	"$@" >"$tmp/$name"
}

gen table3.txt go run ./cmd/spam-bench -par "$par" -table 3
gen figure3.txt go run ./cmd/spam-bench -par "$par" -figure 3
gen figure7.txt go run ./cmd/mpi-bench -par "$par" -figure 7
gen figure8.txt go run ./cmd/mpi-bench -par "$par" -figure 8
gen figure9.txt go run ./cmd/mpi-bench -par "$par" -figure 9
gen figure10.txt go run ./cmd/mpi-bench -par "$par" -figure 10
gen figure11.txt go run ./cmd/mpi-bench -par "$par" -figure 11
gen table5.txt go run ./cmd/splitc-bench -par "$par" -paper
gen table6.txt go run ./cmd/nas-bench -par "$par"
gen chaos-kill.txt go run ./cmd/spam-bench -par "$par" -chaos kill
gen kv-tail.txt go run ./cmd/kv-bench -par "$par" -reqs 10000 -clients 100000
gen kv-cache.txt go run ./cmd/kv-bench -par "$par" -cachetable -reqs 10000 -clients 100000
gen kv-write.txt go run ./cmd/kv-bench -par "$par" -writetable -reqs 10000 -clients 100000

fail=0
for f in "$tmp"/*; do
	name=$(basename "$f")
	if [ $update -eq 1 ]; then
		cp "$f" "results/$name"
	elif ! diff -u "results/$name" "$f"; then
		echo "GOLDEN MISMATCH: results/$name" >&2
		fail=1
	fi
done
if [ $fail -ne 0 ]; then
	echo "golden results differ; if the change is intentional, rerun with -update" >&2
	exit 1
fi
if [ $update -eq 1 ]; then
	echo "goldens refreshed"
else
	echo "goldens OK"
fi
