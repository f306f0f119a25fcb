#!/bin/sh
# loc.sh
#
# Prints the non-test Go line count of every package directory and the
# total: all *.go files except *_test.go, anything under a testdata/
# directory and the benchmark (bench/). This is the number ROADMAP's
# "net non-test line count should go down" target and every simplicity
# PR quote; run it on both commits and compare the totals. With
# $GITHUB_STEP_SUMMARY set, the table is also appended there. Reports
# only — no gate.
set -eu
cd "$(dirname "$0")/.."
table=$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' ! -path './.git/*' |
	sort | xargs wc -l | awk '
	$2 == "total" { next } # one per xargs batch
	{
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		if (!(dir in lines)) order[n++] = dir
		lines[dir] += $1; total += $1
	}
	END {
		for (i = 0; i < n; i++) printf "%7d  %s\n", lines[order[i]], order[i]
		printf "%7d  total (non-test .go, without bench/ and testdata/)\n", total
	}')
echo "$table"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
	{
		echo '### non-test Go lines per package'
		echo ''
		echo '```'
		echo "$table"
		echo '```'
	} >>"$GITHUB_STEP_SUMMARY"
fi
