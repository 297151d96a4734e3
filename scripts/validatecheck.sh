#!/bin/sh
# validatecheck.sh — run the ground-truth validation sweep and gate it on
# the checked-in accuracy floors (scripts/validatefloor.txt). Simulator
# scenarios with authoritative event records go through the full T-DAT
# pipeline; the inferred series, delay factors, verdicts, and detectors are
# scored against the recorded truth. A non-zero exit means the analyzer
# regressed against the simulator.
#
# Usage: sh scripts/validatecheck.sh [outdir] [quick|full]
# Writes scorecard.txt and validate.json into outdir (default: ./validate).
# Mode defaults to quick (the CI mode; full is the local investigation grid).
set -eu

dir=${1:-validate}
mode=${2:-quick}
floors=$(dirname "$0")/validatefloor.txt
mkdir -p "$dir"

flags="-floors $floors -json $dir/validate.json"
case $mode in
quick) flags="$flags -quick -stacks all -stack-table $dir/stacktable.md" ;;
full) flags="$flags -stacks all -stack-table $dir/stacktable.md" ;;
*)
	echo "validatecheck.sh: unknown mode \"$mode\" (want quick or full)" >&2
	exit 2
	;;
esac

# Write the scorecard, then show it. Piping the validator into tee would
# make this script exit with tee's status (POSIX sh has no pipefail), and a
# floor breach would pass the gate.
status=0
# shellcheck disable=SC2086 # flags is a deliberate word list
go run ./cmd/validate $flags > "$dir/scorecard.txt" || status=$?
cat "$dir/scorecard.txt"
exit "$status"
