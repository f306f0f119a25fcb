#!/bin/sh
# loc.sh [base-revision]
#
# Prints the non-test Go line count of every package directory and the
# total: all *.go files except *_test.go, anything under a testdata/
# directory and the benchmark (bench/). This is the number ROADMAP's
# "net non-test line count should go down" target and every simplicity
# PR quote. With a base revision (`make loc BASE=HEAD~1`) the table has
# three columns per package — the base's count read from `git show`, the
# working tree's, and the delta — so the comparison is one run, not two.
# With $GITHUB_STEP_SUMMARY set, the table is also appended there.
# Reports only — no gate.
set -eu
cd "$(dirname "$0")/.."
base=${1:-}

counted() { grep '\.go$' | grep -v -e '_test\.go$' -e '/testdata/' -e '^testdata/' -e '^bench/' | sort; }

# "<tag> <lines> <path>" for every counted file of the working tree (C)
# and, when asked for, of the base revision (B).
lines() {
	find . -name '*.go' ! -path './.git/*' | sed 's|^\./||' | counted |
		xargs wc -l | awk '$2 != "total" { print "C", $1, $2 }' # one total per xargs batch
	[ -z "$base" ] || git ls-tree -r --name-only "$base" | counted | while read -r f; do
		echo "B $(git show "$base:$f" | wc -l) $f"
	done
}

table=$(lines | awk -v base="$base" '
	{
		dir = $3; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		if (!(dir in seen)) { seen[dir] = 1; order[n++] = dir }
		count[$1, dir] += $2; total[$1] += $2
	}
	function row(b, c, name) {
		if (base == "") printf "%7d  %s\n", c, name
		else printf "%7d %7d %+7d  %s\n", b, c, c - b, name
	}
	END {
		if (base != "") printf "%7s %7s %7s  %s\n", "parent", "change", "delta", "(parent = " base ")"
		for (i = 0; i < n; i++) row(count["B", order[i]], count["C", order[i]], order[i])
		row(total["B"], total["C"], "total (non-test .go, without bench/ and testdata/)")
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
