#!/bin/sh
# benchcheck.sh — run the performance-gate benchmarks and enforce the
# checked-in floors (scripts/benchfloor.txt). Two kinds of floor keep the
# hot path honest:
#
#   - allocs/op ceilings are machine-independent and tight: the zero-copy
#     decode and pcap record loop must stay at 0 allocs/op, and whole-
#     pipeline allocations, from a capture alone or with its MRT archive,
#     may not creep back toward the pre-zero-copy count.
#   - conns/sec minimums and ns/op ceilings are deliberately loose (CI
#     runners vary severalfold in speed); they catch order-of-magnitude
#     regressions, not noise.
#
# Usage: sh scripts/benchcheck.sh [outdir]
# Writes the raw benchmark output (bench.txt) and a parsed JSON snapshot
# (BENCH_speed.json) into outdir (default: ./bench). The checked-in
# BENCH_speed.json at the repo root is the performance trajectory: refresh
# it from a quiet local machine when a PR moves these numbers.
set -eu

dir=${1:-bench}
floors=$(dirname "$0")/benchfloor.txt
mkdir -p "$dir"
raw="$dir/bench.txt"

# Pipeline throughput from packets and from a streamed capture, flow
# extraction and the paper-scale transfer, whose B/op ceiling only an
# Analyzer that keeps its transfer-end working set meets (root package),
# then the zero-copy microbenchmarks, then the MRT archive path (tdat
# -mrt) and the archive read under it, whose allocs/op ceiling only a
# one-pass read meets, then the timer knee over a paper-scale curve, whose
# ns/op ceiling only an O(n) pass meets, then MCT's novelty count over a
# cold 900k-prefix table, whose B/op ceiling only the trie bitmap meets,
# then the BGP scan of a paper-scale table stream, which must not allocate.
# -benchtime counts both in iterations-or-seconds; 1s is enough for stable
# allocs/op, which is what the tight floors gate. The output goes to the file first and is shown
# after: piping into tee would hide a failing benchmark behind tee's exit
# status (POSIX sh has no pipefail).
status=0
{
	go test -run '^$' \
		-bench 'BenchmarkAnalyzeParallel$|BenchmarkAnalyzeParallelStream$|BenchmarkFlowExtraction$|BenchmarkPaperScaleTransfer$' \
		-benchmem -benchtime 1s . &&
		go test -run '^$' -bench 'BenchmarkDecodeInto$|BenchmarkDecodeReference$' \
			-benchmem -benchtime 1s ./internal/packet &&
		go test -run '^$' -bench 'BenchmarkReadInto$' \
			-benchmem -benchtime 1s ./internal/pcapio &&
		go test -run '^$' -bench 'BenchmarkAnalyzeWithArchive$' \
			-benchmem -benchtime 1s ./cmd/tdat &&
		go test -run '^$' -bench 'BenchmarkReadAll$' \
			-benchmem -benchtime 1s ./internal/mrt &&
		go test -run '^$' -bench 'BenchmarkGapKnee$' \
			-benchmem -benchtime 1s ./internal/knee &&
		go test -run '^$' -bench 'BenchmarkFindEndKeys$' \
			-benchmem -benchtime 1s ./internal/mct &&
		go test -run '^$' -bench 'BenchmarkScanStream$' \
			-benchmem -benchtime 1s ./internal/bgp
} > "$raw" || status=$?
cat "$raw"
if [ "$status" != 0 ]; then
	echo "FAIL benchmark run exited with status $status" >&2
	exit "$status"
fi

# Parse `go test -bench` lines into "name metric value" triples. Benchmark
# names carry a -<GOMAXPROCS> suffix; strip it so floors are host-agnostic.
parsed="$dir/parsed.txt"
awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i < NF; i += 2) {
		printf "%s %s %s\n", name, $(i + 1), $i
	}
}
' "$raw" > "$parsed"

# JSON snapshot: one object per benchmark with its reported metrics.
{
	echo '{'
	echo '  "note": "go test -bench snapshot; see scripts/benchcheck.sh",'
	echo '  "results": ['
	awk '
	{
		key = $1
		if (key != last) {
			if (last != "") printf "},\n"
			printf "    {\"bench\": \"%s\"", key
			last = key
		}
		metric = $2
		gsub(/[^A-Za-z0-9_]/, "_", metric)
		printf ", \"%s\": %s", metric, $3
	}
	END { if (last != "") printf "}\n" }
	' "$parsed" | sed '$!s/^    {/    {/'
	echo '  ]'
	echo '}'
} > "$dir/BENCH_speed.json"

fail=0
while read -r bench metric bound floor; do
	case $bench in ''|\#*) continue ;; esac
	value=$(awk -v b="$bench" -v m="$metric" '$1 == b && $2 == m { print $3; exit }' "$parsed")
	if [ -z "$value" ]; then
		echo "FAIL $bench $metric: not reported (benchmark missing or renamed)" >&2
		fail=1
		continue
	fi
	ok=$(awk -v v="$value" -v f="$floor" -v b="$bound" 'BEGIN {
		if (b == "min") print (v >= f) ? 1 : 0
		else           print (v <= f) ? 1 : 0
	}')
	if [ "$ok" = 1 ]; then
		echo "ok   $bench $metric $value ($bound $floor)"
	else
		echo "FAIL $bench $metric $value violates $bound $floor" >&2
		fail=1
	fi
done < "$floors"
exit "$fail"
