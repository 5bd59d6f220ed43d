#!/usr/bin/env bash
# Bit-identity gate over the benchmark: runs every dmbench workload once
# at seed 0 for one second, untraced, and fails when a workload reports
# a failed check or its result digest differs from the pinned seed-0
# value.  The digest folds every solve's outputs, so any change to a
# solver trajectory, a cut, a dose map or a signoff number moves it.
#
#   bash scripts/bench_digests.sh
#
# Run from the repository root.  A change that is meant to move the
# numbers must update the pinned digests below in the same commit.
set -uo pipefail

declare -A want=(
	[dosepl]=86200a849418249d
	[tables-iv-x]=c1a06a7ca3969ea1
	[wafer]=f83fdf47e90ff291
	[serve-mix]=e746bf3d9975dbef
)

status=0
for w in dosepl tables-iv-x wafer serve-mix; do
	if ! out=$(bash dmbench/run.sh --workload "$w" --seed 0 --seconds 1 --trace 0); then
		echo "$w: dmbench exited non-zero"
		status=1
		continue
	fi
	got=$(printf '%s\n' "$out" | grep -o '"digest_fnv64":"[0-9a-f]*"' | head -n 1 | cut -d'"' -f4)
	last=$(printf '%s\n' "$out" | tail -n 1)
	case $last in
	'{"correct":true,'*) ;;
	*)
		echo "$w: failed check: $last"
		status=1
		;;
	esac
	if [ "$got" != "${want[$w]}" ]; then
		echo "$w: digest ${got:-missing}, want ${want[$w]}"
		status=1
	else
		echo "$w: digest $got ok"
	fi
done
exit $status
