#!/bin/sh
# coverfloor.sh <pkg> <floor> [test-pkgs...]
#
# Prints the statement coverage of <pkg> (a ./path) and fails when it is
# below <floor> percent; a floor of 0 only reports. The profile is taken
# over the test packages named after the floor, or over <pkg>'s own tests
# when none are named. Extra `go test` flags (-short) come from
# $COVERFLAGS; the Go binary from $GO. With $GITHUB_STEP_SUMMARY set, the
# result is also appended there as a table row. Called by `make fault`
# and by the CI fault job, so the floors live in one place: the Makefile.
set -eu
pkg=$1
floor=$2
shift 2
[ $# -gt 0 ] || set -- "$pkg"
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
# shellcheck disable=SC2086 # COVERFLAGS is a flag list
${GO:-go} test ${COVERFLAGS:-} -coverprofile="$profile" -coverpkg="$pkg" "$@" >/dev/null
pct=$(${GO:-go} tool cover -func="$profile" | awk '/^total:/ {sub(/%/,"",$3); print $3}')
name=${pkg#./}
echo "$name coverage: $pct% (floor $floor%)"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
	echo "| $name | $pct% | $floor% |" >>"$GITHUB_STEP_SUMMARY"
fi
awk -v p="$pct" -v f="$floor" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' ||
	{ echo "$name coverage below the $floor% floor"; exit 1; }
