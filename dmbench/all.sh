#!/usr/bin/env bash
# Runs every workload once, untraced, and prints each result line.
# Exits non-zero if any run fails or reports a failed correctness check.
#
#   bash dmbench/all.sh [seed] [seconds]
#
# Run from the repository root.
set -uo pipefail
seed=${1:-0}
seconds=${2:-20}
status=0
for w in tables-iv-x dosepl wafer serve-mix; do
	last=$(bash dmbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
	echo "$w $last"
	case $last in
	'{"correct":true,'*) ;;
	*) status=1 ;;
	esac
done
exit $status
